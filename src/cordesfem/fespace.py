"""Finite element spaces: DG (s=0) and C0 with zero boundary values (s=1).

The DG space uses the orthonormal modal basis per element, so the mass
matrix is 2|K| times the identity on each element. The C0 space uses
Lagrange nodes shared across faces, with homogeneous Dirichlet conditions
imposed by dropping boundary nodes from the global numbering.
An absent dof (a dropped boundary node, or the missing side of a boundary
face in `forms`) is `dim` in every dof map: `gather` reads 0 there, and
sums scatter it into a pad entry that they drop.

Dofs are numbered in the order their matrices are factored: `dof_order`
renumbers every space's dofs by nested dissection of the elements
(`mesh.dissection_keys`; George, SIAM J. Numer. Anal. 10 (1973)): each
dof takes the place of the last element holding it, so both halves of a
part come before their separator. Every matrix on the space's face
pattern is then stored in factor order, and the solver factors it as it
is.

Evaluation is batched: `FESpace.points`/`ref_points` are the affine maps
and `FESpace.shapes` the shape tables, at shared or per-element reference
points. `_chain_rule` applies invJ (gradients) or invJ (x) invJ (flattened Hessians)
to them in one batched matmul; `forms` contracts face traces in the face frame.
`DiscreteFunction.eval` is coefficient-first: coefficients meet the
reference tabulation in one matmul, and only the result is transformed;
`eval_table` does the same with a tabulation the caller keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis as bas
from .mesh import MeshLevel, dissection_keys
from .quadrature import triangle_rule


# default `elems` of the batched evaluators: every element, in order
ALL = slice(None)


class SpaceError(ValueError):
    pass


@dataclass(frozen=True)
class SpaceConfig:
    p: int
    s: int = 0
    q: int | None = None  # lifting degree, default p

    def __post_init__(self):
        if self.p < 2:
            raise SpaceError("polynomial degree p must be >= 2")
        if self.s not in (0, 1):
            raise SpaceError("continuity flag s must be 0 or 1")
        q = self.p if self.q is None else self.q
        if q < self.p - 2:
            raise SpaceError("lifting degree q must satisfy q >= p - 2")
        object.__setattr__(self, "q", q)

    @property
    def quad_exactness(self) -> int:
        return 2 * self.p + 2

    @property
    def face_exactness(self) -> int:  # the degree of [v][w] and (n . [grad v]) psi
        return max(2 * self.p, self.p - 1 + self.q)


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

        if s == 0:
            self.dim = mesh.n_elements * self.nloc
            dofmap = np.arange(self.dim, dtype=np.int64).reshape(-1, self.nloc)
        else:
            dofmap, self.dim = _c0_dofmap(mesh, p)
        # number the dofs in factor order; _c0_dofmap's -1 reads the pad dim
        self.dofmap = np.append(dof_order(mesh, dofmap, self.dim), self.dim)[dofmap]

        self.elem_rule = triangle_rule(config.quad_exactness)
        self._ops = None  # cache slot for the forms.Operators of this space

    # ---------------------------------------------------------------- geometry
    def points(self, ref_pts: np.ndarray, elems=ALL) -> np.ndarray:
        """Physical images (n, nq, 2) of reference points, shared (nq, 2) or
        per element (n, nq, 2), on elements `elems` (index array or ALL)."""
        ref_pts = np.asarray(ref_pts, dtype=float)
        return ref_pts @ self.J[elems].transpose(0, 2, 1) + self.v0[elems][:, None, :]

    def ref_points(self, phys_pts: np.ndarray, elems=ALL) -> np.ndarray:
        """Reference coordinates (n, nq, 2) of physical points, shared (nq, 2)
        or per element (n, nq, 2), on elements `elems` (index array or ALL)."""
        shift = phys_pts - self.v0[elems][:, None, :]
        return shift @ self.invJ[elems].transpose(0, 2, 1)

    # ------------------------------------------------------------------- shapes
    def shapes(self, ref_pts: np.ndarray, order: int = 0, elems=ALL) -> np.ndarray:
        """Physical values (order 0), gradients (1) or Hessians (2) of the
        local shape functions, (n, nq, nloc, ...), on elements `elems` at
        shared (nq, 2) or per-element (n, nq, 2) reference points, from one
        tabulation of the reference basis."""
        if order not in (0, 1, 2):
            raise SpaceError(f"derivative order {order} not supported (max 2)")
        ref_pts = np.asarray(ref_pts, dtype=float)
        tab = self.basis.eval(ref_pts.reshape(-1, 2), order)
        m = ref_pts.shape[-2] * self.nloc
        flat = tab.reshape(ref_pts.shape[:-2] + (m, 2**order))
        out = _chain_rule(flat, self.invJ[elems], order)
        return out.reshape((len(out), ref_pts.shape[-2]) + tab.shape[1:])


def _chain_rule(ref: np.ndarray, invJ: np.ndarray, order: int) -> np.ndarray:
    """Physical derivatives (n, m, 2^order) from reference ones, shared
    (m, 2^order) or per element (n, m, 2^order), of the maps with inverse
    Jacobians invJ (n, 2, 2): gradients times invJ, flattened Hessians times
    T[(k, m), (i, j)] = invJ[k, i] invJ[m, j]. Order 0 is the identity."""
    if order == 0:
        return np.broadcast_to(ref, (len(invJ),) + ref.shape[-2:])
    if order == 2:
        invJ = (invJ[:, :, None, :, None] * invJ[:, None, :, None, :]).reshape(-1, 4, 4)
    return np.matmul(ref, invJ)


def gather(coeffs: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """coeffs[dofs], with 0 at the absent dof dim."""
    return np.append(coeffs, 0.0)[dofs]


def _c0_dofmap(mesh: MeshLevel, p: int):
    nv = mesh.n_vertices
    bmask = mesh.boundary_vertex_mask()
    vertex_dof = np.full(nv, -1, dtype=np.int64)
    vertex_dof[~bmask] = np.arange(np.count_nonzero(~bmask))
    next_dof = int(np.count_nonzero(~bmask))

    n_edge = p - 1  # >= 1 since p >= 2
    face_dof = np.full((mesh.n_faces, n_edge), -1, dtype=np.int64)
    inner = mesh.face_elems[:, 1] >= 0
    n_inner = int(np.count_nonzero(inner))
    face_dof[inner] = next_dof + np.arange(n_inner * n_edge).reshape(n_inner, n_edge)
    next_dof += n_inner * n_edge

    nodes = bas.lagrange_nodes(p)
    n_int = (p - 1) * (p - 2) // 2
    tri, ne = mesh.tri, mesh.n_elements

    dofmap = np.full((ne, len(nodes)), -1, dtype=np.int64)
    j = 0  # running index of the interior nodes
    for l, bary in enumerate(nodes):
        zeros = np.flatnonzero(bary == 0)
        if len(zeros) == 2:  # vertex node
            dofmap[:, l] = vertex_dof[tri[:, np.argmax(bary)]]
        elif len(zeros) == 1:  # edge node
            b, c = [a for a in range(3) if a != zeros[0]]
            slot = np.where(tri[:, b] < tri[:, c], bary[c], bary[b])
            dofmap[:, l] = face_dof[mesh.elem_faces[:, zeros[0]], slot - 1]
        else:  # interior node
            dofmap[:, l] = next_dof + np.arange(ne) * n_int + j
            j += 1
    next_dof += ne * n_int
    return dofmap, next_dof


def dof_order(mesh: MeshLevel, dofmap: np.ndarray, dim: int) -> np.ndarray:
    """The position of each dof in nested-dissection order: by the last
    element, in `dissection_keys` order, holding it. Gram and Jacobian
    entries couple dofs of one element or of face neighbours, and a dof held
    in both halves of a part sits on an interior vertex or edge, whose ring
    of elements crosses the cut at a face of a separator element; so the
    halves never couple. An absent dof (dim or -1) lands in a dropped pad."""
    keys, _ = dissection_keys(mesh)
    rank = np.argsort(np.argsort(keys, kind="stable"))
    last = np.zeros(dim + 1, dtype=np.int64)
    np.maximum.at(last, dofmap, rank[:, None])
    return np.argsort(np.argsort(last[:-1], kind="stable"))


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

    def eval(self, ref_pts: np.ndarray, order: int = 0, elems=ALL) -> np.ndarray:
        """Values (n, nq), gradients (n, nq, 2) or Hessians (n, nq, 2, 2) on
        elements `elems` at shared (nq, 2) or per-element (n, nq, 2)
        reference points."""
        ref_pts = np.asarray(ref_pts, dtype=float)
        tab = self.space.basis.eval(ref_pts.reshape(-1, 2), order)
        shape = ref_pts.shape[:-1] + (self.space.nloc, 2**order)
        return self.eval_table(tab.reshape(shape), order, elems)

    def eval_table(self, tab: np.ndarray, order: int, elems=ALL) -> np.ndarray:
        """`eval` at points whose reference tabulation is given, flattened
        to (nq, nloc, 2^order) for shared or (n, nq, nloc, 2^order) for
        per-element points, so that a kept table is not tabulated again."""
        space = self.space
        loc = gather(self.coeffs, space.dofmap[elems])
        n, nq, nloc = len(loc), tab.shape[-3], space.nloc
        if tab.ndim == 3:  # one (n, nloc) @ (nloc, nq 2^order) product
            ref = loc @ tab.transpose(1, 0, 2).reshape(nloc, -1)
        else:
            ref = (loc[:, None, None, :] @ tab)[:, :, 0]
        out = _chain_rule(ref.reshape(n, nq, 2**order), space.invJ[elems], order)
        return out.reshape((n, nq) + (2,) * order)

