"""Shared fixtures: a small nonuniform mesh hierarchy and cached spaces;
the mass matrix, and the L2 projection that tests use to build space
members; quadrature rules by domain name and mesh quality measures."""

import numpy as np
import pytest

from cordesfem import (
    DiscreteFunction,
    SpaceConfig,
    build_space,
    refine_conforming,
    uniform_refine,
    unit_square_mesh,
)
from cordesfem.forms import frozen_jacobian, jacobian_coefficients
from cordesfem.quadrature import QuadratureError, segment_rule, triangle_rule
from cordesfem.solver import linear_solver
from lifted_oracle import assemble_csr, mass_blocks


def linear_solve(matrix, rhs, stats=None):
    """A^{-1} rhs by `solver.linear_solver(matrix, stats)`."""
    return linear_solver(matrix, stats)(rhs)


def jacobian(space, problem, u, params):
    """The frozen Jacobian at u, from its `jacobian_coefficients`."""
    return frozen_jacobian(space, jacobian_coefficients(space, problem, u), params)


def quadrature_rule(domain: str, exactness: int):
    """The rule by domain name ('triangle' or 'segment')."""
    if domain == "triangle":
        return triangle_rule(exactness)
    if domain == "segment":
        return segment_rule(exactness)
    raise QuadratureError(f"unknown quadrature domain {domain!r}")


def min_angle(mesh) -> float:
    """Smallest interior angle over all elements, in radians."""
    v = mesh.vertices[mesh.tri]  # (ne, 3, 2)
    angles = []
    for i in range(3):
        a = v[:, (i + 1) % 3] - v[:, i]
        b = v[:, (i + 2) % 3] - v[:, i]
        cosang = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.min(angles))


def shape_regularity(mesh) -> float:
    """Max over elements of longest edge / shortest altitude."""
    v = mesh.vertices[mesh.tri]
    e0 = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
    e1 = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
    e2 = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
    longest = np.max([e0, e1, e2], axis=0)
    alt = 2.0 * mesh.areas() / longest
    return float(np.max(longest / alt))


def mass_matrix(space):
    """The mass matrix of a space, from its element mass blocks."""
    return assemble_csr(space.dofmap[:, :, None], space.dofmap[:, None, :],
                        mass_blocks(space), (space.dim, space.dim))


def project_l2(space, f) -> DiscreteFunction:
    """L2-orthogonal projection of a callable f(x) with x of shape (n, 2),
    called once on the quadrature points of all elements together."""
    rule = space.elem_rule
    vals = space.basis.eval(rule.points, 0)
    x = space.points(rule.points)
    fx = np.asarray(f(x.reshape(-1, 2)), dtype=float).reshape(x.shape[:2])
    loc = space.detJ[:, None] * (fx @ (rule.weights[:, None] * vals))
    valid = space.dofmap < space.dim
    rhs = np.bincount(space.dofmap[valid], loc[valid], minlength=space.dim)
    return DiscreteFunction(space, linear_solve(mass_matrix(space), rhs))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture(scope="session")
def mesh_hierarchy():
    """Four levels: uniform start, then alternating local and global refines,
    so face configurations include hanging-node closure artifacts."""
    levels = [unit_square_mesh(2)]
    m = refine_conforming(levels[0], {0, 3})
    levels.append(m)
    levels.append(uniform_refine(m))
    every_third = set(range(0, levels[-1].n_elements, 3))
    levels.append(refine_conforming(levels[-1], every_third))
    return levels


@pytest.fixture(scope="session")
def spaces(mesh_hierarchy):
    """Space cache keyed by (level, p, s)."""
    cache = {}

    def get(level, p, s):
        key = (level, p, s)
        if key not in cache:
            cache[key] = build_space(mesh_hierarchy[level], SpaceConfig(p=p, s=s))
        return cache[key]

    return get
