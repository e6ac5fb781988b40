"""The lifted side of the stabilization identity, as an independent oracle.

The library assembles the stabilization form from its facewise definition
only. These functions of a space build it again through the lifted
Hessians: the broken Hessian maps D2, the lifting maps R of the gradient
jumps, their trace TrR, the lifted Laplacian Delta_k and from them
S_lifted, each a sparse matrix from COO triplets (`assemble_csr`) on the
space's `Operators` data. Criteria 1-2 and `test_forms.py` compare them
with the facewise matrices, the local Delta_k^T patches and the defining
integrals of the liftings. The element mass blocks and the physical shape
Hessians, which the library builds from reference tensors instead, are
tabulated here per element.
"""

import numpy as np
import scipy.sparse as sp

from cordesfem.forms import get_operators


def assemble_csr(rows, cols, data, shape) -> sp.csr_matrix:
    """Sum COO triplets into a CSR matrix. The three arrays broadcast
    together; entries with a row or column index past the shape (the absent
    dof dim, the modal rows of a missing boundary-face side) are dropped."""
    rows, cols, data = (a.ravel() for a in np.broadcast_arrays(rows, cols, data))
    keep = (rows < shape[0]) & (cols < shape[1])
    return sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=shape)


def mass_blocks(space) -> np.ndarray:
    """Element mass blocks (ne, nloc, nloc): detJ times the reference mass."""
    rule = space.elem_rule
    vals = space.basis.eval(rule.points, 0)  # (nq, nloc) shared across elements
    local = (vals.T * rule.weights) @ vals
    return local[None, :, :] * space.detJ[:, None, None]


def shape_hessians(space) -> np.ndarray:
    """Physical Hessians (ne, nq, nloc, 2, 2) of the shape functions at
    the element quadrature points."""
    return space.shapes(space.elem_rule.points, 2)


def _modal_shape(space) -> tuple[int, int]:
    """Shape of a map from the dofs to the modal coefficients per element."""
    return (space.mesh.n_elements * get_operators(space).nmod, space.dim)


def D2(space) -> dict:
    """Broken Hessian maps D2[(i, j)], i <= j: modal coefficients of each
    shape function's physical Hessian component (exact since p - 2 <= q)."""
    ops = get_operators(space)
    PH, ne, nmod = shape_hessians(space), space.mesh.n_elements, ops.nmod
    coeff = (ops.wq[:, None] * ops.Bm).T @ PH.reshape(ne, len(ops.wq), -1)
    coeff = coeff.reshape(ne, nmod, *PH.shape[2:])
    rows = (np.arange(ne)[:, None] * nmod + np.arange(nmod))[:, :, None]
    cols = space.dofmap[:, None, :]
    return {
        (i, j): assemble_csr(rows, cols, coeff[..., i, j], _modal_shape(space))
        for (i, j) in ((0, 0), (0, 1), (1, 1))
    }


def R(space) -> dict:
    """Lifting maps R[(i, j)] of the gradient jumps; boundary faces lift
    only the tangential part of the trace."""
    ops = get_operators(space)
    ft, nmod = ops.faces, ops.nmod
    n, (jn, jt) = space.mesh.face_normals, np.moveaxis(ft.jgrad, -1, 0)
    # the Cartesian gradient jumps from their face-frame components
    t = np.stack([-n[:, 1], n[:, 0]], axis=1)
    g = jn[..., None] * n[:, None, None] + jt[..., None] * t[:, None, None]
    tangential = g - np.einsum("fqai,fi->fqa", g, n)[..., None] * n[:, None, None]
    src = np.where(ft.interior[:, None, None, None], g, tangential)
    scale = ft.avg / ops.detJ[ft.elems]  # the plus side of a boundary face is 0
    elems = ft.elems[:, :, None]
    rows = np.where(elems >= 0, elems * nmod + np.arange(nmod),
                    _modal_shape(space)[0])[..., None]
    cols = ft.dofs[:, None, None, :]
    psi = ft.psi.transpose(0, 1, 3, 2)  # (nf, 2, nmod, nqf)
    out = {}
    for i in (0, 1):
        loc = psi @ (ft.wq[:, :, None] * src[..., i])[:, None]
        for j in (0, 1):
            data = (scale * n[:, j, None])[:, :, None, None] * loc
            out[(i, j)] = assemble_csr(rows, cols, data, _modal_shape(space))
    return out


def TrR(space, lifts=None) -> sp.csr_matrix:
    """The trace R00 + R11 of the lifting maps (R(space) unless given)."""
    lifts = R(space) if lifts is None else lifts
    return (lifts[(0, 0)] + lifts[(1, 1)]).tocsr()


def Delta_k(space, hess=None, lifts=None) -> sp.csc_matrix:
    """The lifted Laplacian D2_00 + D2_11 - TrR as a CSC matrix, from the
    maps D2(space) and R(space) unless given."""
    hess = D2(space) if hess is None else hess
    return (hess[(0, 0)] + hess[(1, 1)] - TrR(space, lifts)).tocsc()


def S_lifted(space) -> sp.csr_matrix:
    """Stabilization matrix from the lifted Hessians H = D2 - R:
    sum |H_ij|^2 - (Delta_k)^2 + (TrR)^2 - sum |R_ij|^2 in the modal L2
    inner product, whose Gram is detJ times the identity per element."""
    hess, lifts = D2(space), R(space)
    # D2 stores the symmetric broken Hessian's upper triangle only
    H = {(i, j): hess[(min(i, j), max(i, j))] - lifts[(i, j)] for (i, j) in lifts}
    W = sp.diags(np.repeat(space.detJ, get_operators(space).nmod))

    def gram(A, B):
        return (A.T @ W @ B).tocsr()

    tr, lap = TrR(space, lifts), Delta_k(space, hess, lifts)
    S = sum(gram(H[k], H[k]) for k in H)
    S = S - gram(lap, lap) + gram(tr, tr)
    S = S - sum(gram(lifts[k], lifts[k]) for k in lifts)
    return S.tocsr()

