"""Bilinear forms, lifting operators and nonlinear residual assembly.

The stabilization form is assembled twice, once from its facewise definition
(volume Hessian terms plus tangential face terms) and once through the
lifted Hessians; their agreement to roundoff is the sharpest internal
consistency check of face terms, liftings and normal conventions.

Lifted quantities are represented by modal coefficients in the orthonormal
degree-q basis per element, so liftings reduce to face integrals against
modal traces and all lifted bilinear forms are products of sparse
coefficient maps.

All face terms (penalties, facewise stabilization, liftings, and the jump
seminorm and estimator jumps as sums of squares) read one `FaceTables`,
built per space in a single batched pass. A boundary face is a two-sided
face whose plus side has weight 0 and dofs -1; jump and average weights
are per-face arrays, so face integrals have no interior/boundary branch.
Element and face Grams are one weighted-Gram matmul each (`_gram`) and the
modal maps plain matmuls, so every matrix agrees to roundoff, not bitwise,
with the one a per-element or per-face loop would build.

Newton's u-independent work is done once per space: `Operators` caches the
coefficient table of the last problem and the linear part of the last
`FormParams`, which residuals, Jacobians and the estimator all read. The
frozen Jacobian is one scatter of batched element blocks, times Delta_k^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import cordes
from .basis import ortho_basis
from .fespace import DiscreteFunction, FESpace, SpaceError, assemble_csr, gather
from .fespace import mass_matrix
from .mesh import INTERIOR
from .quadrature import segment_rule


@dataclass(frozen=True)
class FormParams:
    theta: float = 0.5
    sigma: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise SpaceError("theta must lie in [0, 1]")
        if self.sigma <= 0.0:
            raise SpaceError("sigma must be positive")
        if self.rho < 0.0:
            raise SpaceError("rho must be nonnegative")

    @classmethod
    def defaults(cls, p: int, s: int, theta: float = 0.5) -> "FormParams":
        """sigma = 10 p^2 always; rho = 10 p^4 for DG, 0 for C0-IP."""
        rho = 10.0 * p**4 if s == 0 else 0.0
        return cls(theta=theta, sigma=10.0 * p**2, rho=rho)


def _validate_params(params: FormParams, s: int) -> None:
    if s == 0 and params.rho <= 0.0:
        raise SpaceError("rho must be positive for the DG space (s=0)")


@dataclass(frozen=True)
class FaceTables:
    """Struct-of-arrays traces of the local shape functions on all faces.

    Every face is two-sided. The plus side of a boundary face has element
    -1, dofs -1 and jump and average weights 0, so interior and boundary
    faces share one code path. The `2 nloc` local dofs of a face are those
    of its minus element followed by those of its plus element.
    """

    elems: np.ndarray  # (nf, 2) minus and plus element, plus -1 on the boundary
    interior: np.ndarray  # (nf,) bool
    normal: np.ndarray  # (nf, 2)
    length: np.ndarray  # (nf,)
    wq: np.ndarray  # (nf, nqf) physical quadrature weights
    avg: np.ndarray  # (nf, 2) average weights, (1/2, 1/2) or (1, 0)
    dofs: np.ndarray  # (nf, 2 nloc), -1 on the missing side and Dirichlet dofs
    jval: np.ndarray  # (nf, nqf, 2 nloc) value jumps of the face shape functions
    jgrad: np.ndarray  # (nf, nqf, 2 nloc, 2) gradient jumps
    psi: np.ndarray  # (nf, 2, nqf, nmod) modal traces per side


def face_tables(space: FESpace, modal) -> tuple[FaceTables, np.ndarray]:
    """FaceTables of a space, plus the averaged Hessian traces
    (nf, nqf, 2 nloc, 2, 2) that only assembly reads, from one basis
    tabulation per derivative order on all face points."""
    mesh = space.mesh
    nf, nloc = mesh.n_faces, space.nloc
    frule = segment_rule(space.config.quad_exactness)
    nqf = frule.n
    p0 = mesh.vertices[mesh.face_verts[:, 0]]
    d = mesh.vertices[mesh.face_verts[:, 1]] - p0
    length = np.hypot(d[:, 0], d[:, 1])
    xq = p0[:, None, :] + frule.points[None, :, :1] * d[:, None, :]  # (nf, nqf, 2)
    interior = mesh.face_kind == INTERIOR
    elems = mesh.face_elems
    # the missing plus side borrows the minus element; its zero weights and
    # -1 dofs keep it out of every sum
    side = np.where(elems >= 0, elems, elems[:, :1])
    e = side.ravel()
    ref = space.ref_points(np.repeat(xq, 2, axis=0), e)  # (2 nf, nqf, 2)
    tab = (nf, 2, nqf, nloc)
    val = space.shapes(ref, 0, e).reshape(tab)
    grad = space.shapes(ref, 1, e).reshape(*tab, 2)
    hess = space.shapes(ref, 2, e).reshape(*tab, 2, 2)
    psi = modal.eval(ref.reshape(-1, 2), 0).reshape(nf, 2, nqf, -1)

    jump = np.where(interior[:, None], [1.0, -1.0], [1.0, 0.0])
    avg = np.where(interior[:, None], [0.5, 0.5], [1.0, 0.0])

    def by_face(w, t):
        # weight each side and merge the sides: (nf, 2, nqf, nloc, ...)
        # -> (nf, nqf, 2 nloc, ...)
        t = w.reshape(w.shape + (1,) * (t.ndim - 2)) * t
        return np.moveaxis(t, 1, 2).reshape(nf, nqf, 2 * nloc, *t.shape[4:])

    dofs = np.where(elems[:, :, None] >= 0, space.dofmap[side], -1)
    tables = FaceTables(
        elems=elems, interior=interior, normal=mesh.face_normals, length=length,
        wq=frule.weights[None, :] * length[:, None], avg=avg,
        dofs=dofs.reshape(nf, 2 * nloc), jval=by_face(jump, val),
        jgrad=by_face(jump, grad), psi=psi,
    )
    return tables, by_face(avg, hess)


def _gram(w, A, B=None):
    """Weighted Gram blocks sum_q w_q A[q, a, ...] . B[q, b, ...], (n, na, nb),
    of (n, nq, na, ...) tables (B defaults to A) and weights (nq,) or (n, nq),
    as one batched matmul over the quadrature points and components."""
    # rows of At, Bt: (quadrature point, component); sizes fit empty batches
    n, nq, c = A.shape[0], A.shape[1], int(np.prod(A.shape[3:]))
    At = np.moveaxis(A, 2, 1).reshape(n, A.shape[2], nq * c)
    Bt = At if B is None else np.moveaxis(B, 2, 1).reshape(n, B.shape[2], nq * c)
    w = np.repeat(w, c, axis=-1)[..., None, :]
    return (At * w) @ Bt.transpose(0, 2, 1)


class Operators:
    """All assembled matrices and coefficient maps for one FESpace, and lazy
    caches of its u-independent Newton data. It keeps no reference to the
    space, which holds it, so it is freed with the space without the GC."""

    def __init__(self, space: FESpace):
        cfg = space.config
        self.nmod = (cfg.q + 1) * (cfg.q + 2) // 2
        self.modal = ortho_basis(cfg.q)

        rule = space.elem_rule
        self.wq = rule.weights
        self.ref_pts = rule.points
        self.Bm = self.modal.eval(rule.points, 0)  # (nq, nmod)
        # physical Hessians of the shape functions at element quad points
        self.PH = space.shapes(rule.points, 2)
        self.X = space.points(rule.points)  # physical quad points, (ne, nq, 2)

        self.faces, ahess = face_tables(space, self.modal)
        # the volume Gram matrices and Sface are only summed into S_facewise
        # and norm_gram, so they are not kept
        volume = self._assemble_volume(space)
        Sface = self._assemble_faces(space, ahess)
        self._assemble_modal_maps(space)
        self._combine(*volume, Sface)
        self._table = None  # (problem, cordes.CoefficientTable)
        self._linear = None  # (FormParams, linear part)

    # ------------------------------------------------------------------ volume
    def _assemble_volume(self, sp_: FESpace):
        """M0, M1, M2, ML: the L2, H1, Hessian and Laplacian Gram matrices."""
        w, PH = sp_.detJ[:, None] * self.wq, self.PH
        PG = sp_.shapes(sp_.elem_rule.points, 1)
        lapl = PH[..., 0, 0] + PH[..., 1, 1]
        M1, M2, ML = _gram(w, PG), _gram(w, PH), _gram(w, lapl)
        rows, cols = sp_.dofmap[:, :, None], sp_.dofmap[:, None, :]
        shape = (sp_.dim, sp_.dim)
        M1, M2, ML = (assemble_csr(rows, cols, M, shape) for M in (M1, M2, ML))
        return mass_matrix(sp_), M1, M2, ML

    # ------------------------------------------------------------------- faces
    def _assemble_faces(self, space: FESpace, ahess):
        """Sets the jump penalty matrices Jgrad and Jval; returns Sface, the
        face terms of the facewise stabilization."""
        ft = self.faces
        n, wq, jval, jgrad = ft.normal, ft.wq, ft.jval, ft.jgrad
        t = np.stack([-n[:, 1], n[:, 0]], axis=1)
        rows, cols = ft.dofs[:, :, None], ft.dofs[:, None, :]
        shape = (space.dim, space.dim)

        # jump penalty ingredients (raw, unweighted by sigma/rho); gradient
        # jumps are penalized on interior faces only
        I = ft.interior
        h = ft.length[:, None, None]
        loc = (1.0 / h[I]) * _gram(wq[I], jgrad[I])
        self.Jgrad = assemble_csr(rows[I], cols[I], loc, shape)
        loc = (1.0 / h**3) * _gram(wq, jval)
        self.Jval = assemble_csr(rows, cols, loc, shape)

        # facewise stabilization terms; the tangential-tangential part lives
        # on interior faces only
        def hess(a, b):  # a . ahess . b per face, (nf, nqf, 2 nloc)
            ab = (a[:, :, None] * b[:, None, :]).reshape(-1, 4, 1)
            return (ahess.reshape(len(ab), -1, 4) @ ab).reshape(jgrad.shape[:-1])

        tj = np.einsum("fqai,fi->fqa", jgrad, t)
        jn = np.einsum("fqai,fi->fqa", jgrad, n)
        loc = -_gram(wq, hess(t, n), tj)
        l2 = _gram(wq * I[:, None], hess(t, t), jn)
        loc = loc + loc.transpose(0, 2, 1) + l2 + l2.transpose(0, 2, 1)
        return assemble_csr(rows, cols, loc, shape)

    # -------------------------------------------------------- modal coefficient maps
    def _assemble_modal_maps(self, sp_: FESpace):
        ne, nmod = sp_.mesh.n_elements, self.nmod
        shape = (ne * nmod, sp_.dim)
        mods = np.arange(nmod)

        # broken Hessian maps: modal coefficients of each shape function's
        # physical Hessian components (exact since p - 2 <= q)
        PH = self.PH
        coeff = (self.wq[:, None] * self.Bm).T @ PH.reshape(ne, len(self.wq), -1)
        coeff = coeff.reshape(ne, nmod, *PH.shape[2:])
        rows = (np.arange(ne)[:, None] * nmod + mods)[:, :, None]
        cols = sp_.dofmap[:, None, :]
        self.D2 = {
            (i, j): assemble_csr(rows, cols, coeff[..., i, j], shape)
            for (i, j) in ((0, 0), (0, 1), (1, 1))
        }

        # lifting maps R[(i, j)] of the gradient jumps; boundary faces lift
        # only the tangential part of the trace
        ft = self.faces
        n, g = ft.normal, ft.jgrad
        tangential = g - np.einsum("fqai,fi->fqa", g, n)[..., None] * n[:, None, None]
        src = np.where(ft.interior[:, None, None, None], g, tangential)
        scale = ft.avg / sp_.detJ[ft.elems]  # the plus side of a boundary face is 0
        elems = ft.elems[:, :, None]
        rows = np.where(elems >= 0, elems * nmod + mods, -1)[..., None]
        cols = ft.dofs[:, None, None, :]
        psi = ft.psi.transpose(0, 1, 3, 2)  # (nf, 2, nmod, nqf)
        self.R = {}
        for i in (0, 1):
            loc = psi @ (ft.wq[:, :, None] * src[..., i])[:, None]
            for j in (0, 1):
                data = (scale * n[:, j, None])[:, :, None, None] * loc
                self.R[(i, j)] = assemble_csr(rows, cols, data, shape)

        # diagonal of the modal L2 inner product: int_K psi_a psi_b = detJ_e δ_ab
        self.Wmod = np.repeat(sp_.detJ, nmod)

    def _combine(self, M0, M1, M2, ML, Sface):
        D2, R = self.D2, self.R
        self.TrR = (R[(0, 0)] + R[(1, 1)]).tocsr()
        # CSC, so that Delta_k^T, which residuals and Jacobians apply, is CSR
        self.Delta_k = (D2[(0, 0)] + D2[(1, 1)] - self.TrR).tocsc()
        self.S_facewise = (M2 - ML + Sface).tocsr()
        self.norm_gram = (M2 + M1 + M0 + self.Jgrad + self.Jval).tocsr()

    @cached_property
    def S_lifted(self) -> sp.csr_matrix:
        """Stabilization matrix from the lifted Hessians, built on first use:
        only the lifted mode of `stab_form` reads it."""
        D2, R = self.D2, self.R
        # D2 stores the symmetric broken Hessian's upper triangle only
        H = {(i, j): D2[(min(i, j), max(i, j))] - R[(i, j)] for (i, j) in R}
        W = sp.diags(self.Wmod)

        def gram(A, B):
            return (A.T @ W @ B).tocsr()

        S = sum(gram(H[k], H[k]) for k in H)
        S = S - gram(self.Delta_k, self.Delta_k)
        S = S + gram(self.TrR, self.TrR)
        S = S - sum(gram(R[k], R[k]) for k in R)
        return S.tocsr()

    # ------------------------------------------------------------- state fields
    def hessian_at_qp(self, u: DiscreteFunction) -> np.ndarray:
        """Broken Hessian of u at the element quadrature points, (ne, nq, 2, 2)."""
        return u.eval(self.ref_pts, 2)

    def penalty_matrix(self, params: FormParams) -> sp.csr_matrix:
        return (params.sigma * self.Jgrad + params.rho * self.Jval).tocsr()

    # ----------------------------------------------------- u-independent caches
    def coefficients(self, problem: cordes.ControlProblem) -> cordes.CoefficientTable:
        """Coefficient table of `problem` at the quadrature points X, kept
        until another problem (by identity) asks for it."""
        if self._table is None or self._table[0] is not problem:
            self._table = (problem, cordes.tabulate(problem, self.X.reshape(-1, 2)))
        return self._table[1]

    def linear_part(self, params: FormParams) -> sp.csr_matrix:
        """theta S_facewise + sigma Jgrad + rho Jval, kept until other
        FormParams ask for it."""
        if self._linear is None or self._linear[0] != params:
            lin = params.theta * self.S_facewise + self.penalty_matrix(params)
            self._linear = (params, lin.tocsr())
        return self._linear[1]


def get_operators(space: FESpace) -> Operators:
    if space._ops is None:
        space._ops = Operators(space)
    return space._ops


# ---------------------------------------------------------------------- public API


def stab_form(space: FESpace, w, v, mode: str = "facewise") -> float:
    """Stabilization bilinear form; mode selects the facewise or the lifted
    formula (they agree to roundoff)."""
    ops = get_operators(space)
    if mode == "facewise":
        A = ops.S_facewise
    elif mode == "lifted":
        A = ops.S_lifted
    else:
        raise SpaceError(f"unknown stabilization mode {mode!r}")
    return float(_vec(w) @ (A @ _vec(v)))


def jump_penalty_form(space: FESpace, w, v, params: FormParams) -> float:
    ops = get_operators(space)
    return float(_vec(w) @ (ops.penalty_matrix(params) @ _vec(v)))


def norm_k(space: FESpace, v) -> float:
    ops = get_operators(space)
    x = _vec(v)
    return float(np.sqrt(max(x @ (ops.norm_gram @ x), 0.0)))


def face_jumps(space: FESpace, v) -> tuple[np.ndarray, np.ndarray]:
    """Per-face (1/h) int |[grad v]|^2 (interior faces) and h^-3 int [v]^2:
    sums of squares of jump traces, accurate where x . (Jgrad + Jval) x
    cancels (C0 value jumps, small gradient jumps on fine meshes)."""
    ft = get_operators(space).faces
    x = gather(_vec(v), ft.dofs)
    jv = np.einsum("fqa,fa->fq", ft.jval, x)
    jg = np.einsum("fqai,fa->fqi", ft.jgrad, x)
    grad = ft.interior * np.einsum("fq,fqi,fqi->f", ft.wq, jg, jg) / ft.length
    return grad, np.einsum("fq,fq->f", ft.wq, jv**2) / ft.length**3


def jump_seminorm(space: FESpace, v) -> float:
    return float(np.sqrt(sum(term.sum() for term in face_jumps(space, v))))


def _vec(v) -> np.ndarray:
    return v.coeffs if isinstance(v, DiscreteFunction) else np.asarray(v, dtype=float)


def nonlinear_residual(
    space: FESpace,
    problem: cordes.ControlProblem,
    u: DiscreteFunction,
    params: FormParams,
) -> np.ndarray:
    """Vector of A_k(u; phi_i) over the global basis."""
    _validate_params(params, space.config.s)
    ops = get_operators(space)
    ne, nq = space.mesh.n_elements, len(ops.wq)
    g, _, _ = cordes.inf_sup(ops.coefficients(problem), ops.hessian_at_qp(u))
    mvec = ((space.detJ[:, None] * ops.wq) * g.reshape(ne, nq)) @ ops.Bm
    return ops.Delta_k.T @ mvec.ravel() + ops.linear_part(params) @ u.coeffs


def frozen_jacobian(
    space: FESpace,
    problem: cordes.ControlProblem,
    u: DiscreteFunction,
    params: FormParams,
) -> sp.csr_matrix:
    """Linearization of the residual with controls frozen at the pointwise
    optimizers of F_gamma at the state u: Delta_k^T G plus the linear part.

    G maps dofs to the modal coefficients of the frozen gamma a : D^2 v; its
    element blocks are detJ Bm^T diag(wq c_ij) PH_ij summed over i, j. This
    is exact without a modal projection of PH, whose degree p - 2 <= q."""
    _validate_params(params, space.config.s)
    ops = get_operators(space)
    ne, nmod = space.mesh.n_elements, ops.nmod
    table = ops.coefficients(problem)
    _, ia, ib = cordes.inf_sup(table, ops.hessian_at_qp(u))
    c = table.frozen(ia, ib).reshape(ne, -1, 4, 1)
    c = c * (space.detJ[:, None] * ops.wq)[:, :, None, None]
    PH = ops.PH.reshape(c.shape[:2] + (-1, 4))
    blocks = ops.Bm.T @ (PH @ c)[..., 0]
    rows = (np.arange(ne)[:, None] * nmod + np.arange(nmod))[:, :, None]
    G = assemble_csr(rows, space.dofmap[:, None, :], blocks, (ne * nmod, space.dim))
    return ops.Delta_k.T @ G + ops.linear_part(params)

