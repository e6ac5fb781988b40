"""Benchmark registry: manufactured oracles and declared Cordes parameters."""

import weakref

import numpy as np
import pytest

from cordesfem import (
    DiscreteFunction,
    SpaceConfig,
    build_space,
    get_problem,
    registry,
    unit_square_mesh,
    verify_ellipticity_cordes,
)
from cordesfem import problems
from cordesfem.adapt import error_norm_k
from cordesfem.cordes import _gamma_field, f_gamma_field, tabulate
from cordesfem.quadrature import triangle_rule


def test_registry_contents():
    names = {p.name for p in registry()}
    assert {"poisson_singleton", "two_control_switch",
            "rotated_anisotropic"} <= names


def test_unknown_problem_rejected():
    with pytest.raises(KeyError):
        get_problem("nonexistent_problem")


def test_poisson_singleton_manufactured_data(rng):
    prob = get_problem("poisson_singleton")
    pts = rng.uniform(0, 1, size=(50, 2))
    u = prob.exact.value(pts)
    ref = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    assert np.allclose(u, ref, atol=1e-14)
    f = prob.coeffs.f(pts, prob.controls.alphas[0], prob.controls.betas[0])
    lap = np.trace(prob.exact.hessian(pts), axis1=1, axis2=2)
    assert np.allclose(f, lap, atol=1e-12)


def test_exact_gradient_hessian_consistency(rng):
    eps = 1e-6
    for prob in registry():
        if prob.exact is None:
            continue
        pts = rng.uniform(0.1, 0.9, size=(20, 2))
        grad = prob.exact.gradient(pts)
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = eps
            fd = prob.exact.value(pts + shift) - prob.exact.value(pts - shift)
            fd /= 2 * eps
            assert np.abs(fd - grad[:, d]).max() <= 1e-8, prob.name


@pytest.mark.parametrize("name", ["poisson_singleton", "two_control_switch",
                                  "rotated_anisotropic"])
def test_manufactured_solution_annihilates_f_gamma(name, rng):
    # the defining oracle: F_gamma[u] = 0 at sampled points
    prob = get_problem(name)
    pts = rng.uniform(0, 1, size=(100, 2))
    M = prob.exact.hessian(pts)
    vals = f_gamma_field(prob, pts, M)[0]
    assert np.abs(vals).max() <= 1e-10


def test_two_control_switch_nu_is_one():
    prob = get_problem("two_control_switch")
    assert prob.nu == pytest.approx(1.0)
    report = verify_ellipticity_cordes(prob, np.array([[0.3, 0.6]]))
    assert report.passed and report.nu_est == pytest.approx(1.0)


def test_rotated_anisotropic_declared_nu():
    prob = get_problem("rotated_anisotropic")
    eps = 0.1
    assert prob.nu == pytest.approx(2 * eps / (1 + eps**2), rel=1e-12)


def test_switch_controls_genuinely_switch(rng):
    # optimal controls depend on the sign of g: both alpha values occur
    prob = get_problem("two_control_switch")
    pts = rng.uniform(0, 1, size=(200, 2))
    M = prob.exact.hessian(pts)
    _, ia, ib = f_gamma_field(prob, pts, M + 0.05 * rng.standard_normal(M.shape))
    assert len(np.unique(ia)) > 1 or len(np.unique(ib)) > 1


# ----------------------------------------------- fields once per point set


@pytest.mark.parametrize("name", ["poisson_singleton", "two_control_switch",
                                  "rotated_anisotropic"])
def test_tabulate_equals_each_pair_on_fresh_points(name, rng):
    # the pairs share one evaluation of the exact fields, bitwise
    prob = get_problem(name)
    x = rng.uniform(0, 1, size=(300, 2))
    table = tabulate(prob, x)
    for ia, ib, alpha, beta in prob.control_pairs():
        a = prob.coeffs.a(x.copy(), alpha, beta)
        assert np.array_equal(table.a[ia, ib], a)
        assert np.array_equal(table.f[ia, ib], prob.coeffs.f(x.copy(), alpha, beta))
        assert np.array_equal(table.gamma[ia, ib], _gamma_field(a))


def test_exact_fields_evaluated_once_per_point_set(monkeypatch):
    # one evaluation serves every pair's f in tabulate, and the value,
    # gradient and Hessian in error_norm_k
    calls = []
    fields = problems._sine_fields

    def counting(x):
        calls.append(len(x))
        return fields(x)

    monkeypatch.setattr(problems, "_sine_fields", counting)
    prob = get_problem("rotated_anisotropic")
    x = np.random.default_rng(1).uniform(0, 1, size=(40, 2))
    tabulate(prob, x)  # one a and f per each of the 10 pairs
    assert calls == [40]
    space = build_space(unit_square_mesh(2), SpaceConfig(p=2, s=0))
    calls.clear()
    error_norm_k(space, DiscreteFunction(space, np.ones(space.dim)), prob.exact)
    rule = triangle_rule(space.config.quad_exactness + 2)
    assert calls == [space.mesh.n_elements * rule.n]


def test_fields_fresh_after_an_in_place_change(rng):
    # inside a scope, a call at the same array changed in place evaluates
    # afresh; nothing of the scope outlives it
    prob = get_problem("two_control_switch")
    exact, coeffs = prob.exact, prob.coeffs
    x = rng.uniform(0, 1, size=(50, 2))
    names = ("value", "gradient", "hessian")
    for scope in (exact.at, coeffs.at):
        with scope(x):
            for name in names:
                getattr(exact, name)(x)
            coeffs.f(x, 1, 0)
            x += 0.1
            for name in names:
                got, want = getattr(exact, name)(x), getattr(exact, name)(x.copy())
                assert np.array_equal(got, want), name
            assert np.array_equal(coeffs.f(x, 1, 0), coeffs.f(x.copy(), 1, 0))
    kept = weakref.ref(x)
    tabulate(prob, x)
    del x
    assert kept() is None
