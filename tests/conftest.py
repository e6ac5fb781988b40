"""Shared fixtures: a small nonuniform mesh hierarchy and cached spaces;
the mass matrix, and the L2 projection that tests use to build space
members."""

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
from cordesfem.solver import linear_solver
from lifted_oracle import assemble_csr, mass_blocks


def linear_solve(matrix, rhs, stats=None):
    """A^{-1} rhs by `solver.linear_solver(matrix, stats)`."""
    return linear_solver(matrix, stats)(rhs)


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
    valid = space.dofmap >= 0
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
