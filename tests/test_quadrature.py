"""Quadrature rules: declared exactness, known moments, error handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quadrature_rule

from cordesfem.quadrature import MAX_EXACTNESS, QuadratureError


def test_triangle_known_moment():
    rule = quadrature_rule("triangle", 3)
    val = np.sum(rule.weights * rule.points[:, 0])
    assert abs(val - 1.0 / 6.0) < 1e-14


def test_segment_known_moment():
    rule = quadrature_rule("segment", 4)
    val = np.sum(rule.weights * rule.points[:, 0] ** 2)
    assert abs(val - 1.0 / 3.0) < 1e-14


def test_weights_sum_to_reference_measure():
    for ex in (2, 5, 11):
        tri = quadrature_rule("triangle", ex)
        seg = quadrature_rule("segment", ex)
        assert abs(np.sum(tri.weights) - 0.5) < 1e-14
        assert abs(np.sum(seg.weights) - 1.0) < 1e-14
        assert np.all(tri.weights > 0) and np.all(seg.weights > 0)


def _exact_triangle_monomial(i, j):
    # int_T x^i y^j over the unit right triangle
    from math import factorial

    return factorial(i) * factorial(j) / factorial(i + j + 2)


@pytest.mark.parametrize("exactness", [2, 4, 7, 10, 13])
def test_triangle_exactness_sweep(exactness):
    rule = quadrature_rule("triangle", exactness)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for i in range(exactness + 1):
        for j in range(exactness + 1 - i):
            val = np.sum(rule.weights * x**i * y**j)
            ref = _exact_triangle_monomial(i, j)
            assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref)), (i, j)


@pytest.mark.parametrize("exactness", [2, 5, 9, 14])
def test_segment_exactness_sweep(exactness):
    rule = quadrature_rule("segment", exactness)
    x = rule.points[:, 0]
    for d in range(exactness + 1):
        val = np.sum(rule.weights * x**d)
        assert abs(val - 1.0 / (d + 1)) <= 1e-13


def test_unsupported_degree_rejected():
    with pytest.raises(QuadratureError):
        quadrature_rule("triangle", MAX_EXACTNESS + 1)
    with pytest.raises(QuadratureError):
        quadrature_rule("circle", 2)


@given(st.integers(min_value=0, max_value=20))
@settings(max_examples=20, deadline=None)
def test_requested_exactness_at_least_2p_plus_4(p_like):
    # the forms module relies on exactness up to 2p+4 being available
    ex = min(2 * p_like + 4, MAX_EXACTNESS)
    rule = quadrature_rule("triangle", ex)
    assert rule.points.shape[0] == rule.weights.shape[0]


@pytest.mark.parametrize("domain", ["triangle", "segment"])
def test_rules_are_built_once_and_read_only(domain):
    # every caller shares one rule per exactness, so writing into it fails
    rule = quadrature_rule(domain, 8)
    assert quadrature_rule(domain, 8) is rule
    assert quadrature_rule(domain, 9) is not rule
    for arr in (rule.points, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
