"""Finite element spaces: DG (s=0) and C0 with zero boundary values (s=1).

The DG space uses the orthonormal modal basis per element, so the mass
matrix is 2|K| times the identity on each element. The C0 space uses
Lagrange nodes shared across faces, with homogeneous Dirichlet conditions
imposed by dropping boundary nodes from the global numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import basis as bas
from .mesh import BOUNDARY, MeshLevel
from .quadrature import triangle_rule


class SpaceError(ValueError):
    pass


@dataclass(frozen=True)
class SpaceConfig:
    p: int
    s: int = 0
    q: int | None = None  # lifting degree, default p
    quad_exactness: int | None = None  # default 2p + 2

    def __post_init__(self):
        if self.p < 2:
            raise SpaceError("polynomial degree p must be >= 2")
        if self.s not in (0, 1):
            raise SpaceError("continuity flag s must be 0 or 1")
        q = self.p if self.q is None else self.q
        if q < self.p - 2:
            raise SpaceError("lifting degree q must satisfy q >= p - 2")
        object.__setattr__(self, "q", q)
        if self.quad_exactness is None:
            object.__setattr__(self, "quad_exactness", 2 * self.p + 2)


class FESpace:
    """Degree-p piecewise polynomial space over a MeshLevel."""

    def __init__(self, mesh: MeshLevel, config: SpaceConfig):
        self.mesh = mesh
        self.config = config
        p, s = config.p, config.s
        self.basis = bas.ortho_basis(p) if s == 0 else bas.lagrange_basis(p)
        self.nloc = self.basis.n

        # affine geometry
        v = mesh.vertices
        t = mesh.tri
        self.v0 = v[t[:, 0]]
        J = np.empty((mesh.n_elements, 2, 2))
        J[:, :, 0] = v[t[:, 1]] - self.v0
        J[:, :, 1] = v[t[:, 2]] - self.v0
        self.J = J
        self.detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        self.invJ = np.empty_like(J)
        self.invJ[:, 0, 0] = J[:, 1, 1] / self.detJ
        self.invJ[:, 0, 1] = -J[:, 0, 1] / self.detJ
        self.invJ[:, 1, 0] = -J[:, 1, 0] / self.detJ
        self.invJ[:, 1, 1] = J[:, 0, 0] / self.detJ
        self.areas = 0.5 * self.detJ

        if s == 0:
            ne = mesh.n_elements
            self.dofmap = np.arange(ne * self.nloc, dtype=np.int64).reshape(
                ne, self.nloc
            )
            self.dim = ne * self.nloc
        else:
            self.dofmap, self.dim = _c0_dofmap(mesh, p)

        self.elem_rule = triangle_rule(config.quad_exactness)
        self._ops = None  # cache slot for the forms.Operators of this space

    # ---------------------------------------------------------------- geometry
    def to_physical(self, elem: int, ref_pts: np.ndarray) -> np.ndarray:
        ref_pts = np.atleast_2d(ref_pts)
        return self.v0[elem] + ref_pts @ self.J[elem].T

    def to_reference(self, elem: int, phys_pts: np.ndarray) -> np.ndarray:
        phys_pts = np.atleast_2d(phys_pts)
        return (phys_pts - self.v0[elem]) @ self.invJ[elem].T

    # ------------------------------------------------------------------- shapes
    def eval_shape(self, elem: int, ref_pts: np.ndarray, order: int = 0):
        """Physical-space values/gradients/Hessians of the local shape
        functions of one element at reference points."""
        if order not in (0, 1, 2):
            raise SpaceError(f"derivative order {order} not supported (max 2)")
        tab = self.basis.eval(ref_pts, order)
        if order == 0:
            return tab
        iJ = self.invJ[elem]
        if order == 1:
            return np.einsum("ki,qlk->qli", iJ, tab)
        return np.einsum("ki,qlkm,mj->qlij", iJ, tab, iJ)

    def local_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Gather (ne, nloc) local coefficients; Dirichlet slots are zero."""
        return gather(coeffs, self.dofmap)


def gather(coeffs: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """coeffs[dofs] with zeros where a dof index is negative."""
    out = np.zeros(dofs.shape)
    valid = dofs >= 0
    out[valid] = coeffs[dofs[valid]]
    return out


def assemble_csr(rows, cols, data, shape) -> sp.csr_matrix:
    """Sum COO triplets into a CSR matrix. The three arrays broadcast
    together; entries with a negative row or column index (Dirichlet dofs,
    the missing side of a boundary face) are dropped."""
    rows, cols, data = (a.ravel() for a in np.broadcast_arrays(rows, cols, data))
    keep = (rows >= 0) & (cols >= 0)
    return sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=shape)


def _c0_dofmap(mesh: MeshLevel, p: int):
    nv = mesh.n_vertices
    bmask = mesh.boundary_vertex_mask()
    vertex_dof = np.full(nv, -1, dtype=np.int64)
    vertex_dof[~bmask] = np.arange(np.count_nonzero(~bmask))
    next_dof = int(np.count_nonzero(~bmask))

    n_edge = p - 1  # >= 1 since p >= 2
    face_dof = np.full((mesh.n_faces, n_edge), -1, dtype=np.int64)
    inner = mesh.face_kind != BOUNDARY
    n_inner = int(np.count_nonzero(inner))
    face_dof[inner] = next_dof + np.arange(n_inner * n_edge).reshape(n_inner, n_edge)
    next_dof += n_inner * n_edge

    nodes = bas.lagrange_nodes(p)
    n_int = (p - 1) * (p - 2) // 2
    tri, ne = mesh.tri, mesh.n_elements
    # face_verts rows are sorted pairs in lexicographic order, so their keys
    # are sorted too
    face_keys = mesh.face_verts[:, 0] * nv + mesh.face_verts[:, 1]

    dofmap = np.full((ne, len(nodes)), -1, dtype=np.int64)
    j = 0  # running index of the interior nodes
    for l, bary in enumerate(nodes):
        zeros = np.flatnonzero(bary == 0)
        if len(zeros) == 2:  # vertex node
            dofmap[:, l] = vertex_dof[tri[:, np.argmax(bary)]]
        elif len(zeros) == 1:  # edge node
            b, c = [a for a in range(3) if a != zeros[0]]
            gb, gc = tri[:, b], tri[:, c]
            f = np.searchsorted(face_keys, np.minimum(gb, gc) * nv + np.maximum(gb, gc))
            slot = np.where(gb < gc, bary[c], bary[b])
            dofmap[:, l] = face_dof[f, slot - 1]
        else:  # interior node
            dofmap[:, l] = next_dof + np.arange(ne) * n_int + j
            j += 1
    next_dof += ne * n_int
    return dofmap, next_dof


def build_space(mesh: MeshLevel, config: SpaceConfig) -> FESpace:
    return FESpace(mesh, config)


@dataclass
class DiscreteFunction:
    space: FESpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.dim,):
            raise SpaceError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"space dimension is {self.space.dim}"
            )

    def eval_element(self, elem: int, ref_pts: np.ndarray, order: int = 0):
        """Value / gradient / Hessian fields on one element at ref points."""
        tab = self.space.eval_shape(elem, ref_pts, order)
        loc = gather(self.coeffs, self.space.dofmap[elem])
        return np.einsum("ql...,l->q...", tab, loc)


def mass_matrix(space: FESpace) -> sp.csr_matrix:
    rule = space.elem_rule
    vals = space.basis.eval(rule.points, 0)  # (nq, nloc) shared across elements
    local = np.einsum("q,qa,qb->ab", rule.weights, vals, vals)
    return assemble_csr(
        space.dofmap[:, :, None],
        space.dofmap[:, None, :],
        local[None, :, :] * space.detJ[:, None, None],
        (space.dim, space.dim),
    )


def project_l2(space: FESpace, f) -> DiscreteFunction:
    """L2-orthogonal projection of a callable f(x) with x of shape (n, 2)."""
    rule = space.elem_rule
    vals = space.basis.eval(rule.points, 0)
    rhs = np.zeros(space.dim)
    for e in range(space.mesh.n_elements):
        x = space.to_physical(e, rule.points)
        fe = np.asarray(f(x), dtype=float)
        loc = space.detJ[e] * np.einsum("q,q,qa->a", rule.weights, fe, vals)
        idx = space.dofmap[e]
        valid = idx >= 0
        np.add.at(rhs, idx[valid], loc[valid])
    M = mass_matrix(space)
    try:
        coeffs = spla.spsolve(M.tocsc(), rhs)
    except RuntimeError as err:  # pragma: no cover
        raise SpaceError(f"singular mass matrix in projection: {err}")
    return DiscreteFunction(space, coeffs)
