"""Benchmark registry: manufactured oracles and declared Cordes parameters."""

import numpy as np
import pytest

from cordesfem import get_problem, registry, verify_ellipticity_cordes
from cordesfem.cordes import f_gamma_field


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
