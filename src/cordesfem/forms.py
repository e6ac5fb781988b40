"""Bilinear forms, lifting operators and nonlinear residual assembly.

The stabilization form is assembled twice, once from its facewise definition
(volume Hessian terms plus tangential face terms) and once through the
lifted Hessians; their agreement to roundoff is the sharpest internal
consistency check of face terms, liftings and normal conventions.

Lifted quantities are represented by modal coefficients in the orthonormal
degree-q basis per element, so liftings reduce to face integrals against
modal traces and all lifted bilinear forms are products of sparse
coefficient maps.

All face terms (jump penalties, facewise stabilization, liftings and the
estimator's jumps) read one `FaceTables`, built per space in a single
batched pass. A boundary face is a two-sided face whose plus side has
weight 0 and dofs -1; jump and average weights are per-face arrays, so
face integrals are batched einsums with no interior/boundary branch. Those
einsums keep the factor and summation order of a face-by-face assembly, so
every matrix is bitwise the one a per-face loop would build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import cordes
from .basis import ortho_basis
from .fespace import DiscreteFunction, FESpace, SpaceError, assemble_csr
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
    iJ = space.invJ[side]  # (nf, 2, 2, 2)
    ref = (xq[:, None] - space.v0[side][:, :, None]) @ iJ.transpose(0, 1, 3, 2)
    pts = ref.reshape(-1, 2)
    tab = (nf, 2, nqf, nloc)
    val = space.basis.eval(pts, 0).reshape(tab)
    G = space.basis.eval(pts, 1).reshape(*tab, 2)
    grad = np.einsum("fski,fsqlk->fsqli", iJ, G)
    H = space.basis.eval(pts, 2).reshape(*tab, 2, 2)
    hess = np.einsum("fski,fsqlkm,fsmj->fsqlij", iJ, H, iJ)
    psi = modal.eval(pts, 0).reshape(nf, 2, nqf, -1)

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


class Operators:
    """All assembled matrices and coefficient maps for one FESpace."""

    def __init__(self, space: FESpace):
        self.space = space
        cfg = space.config
        self.nmod = (cfg.q + 1) * (cfg.q + 2) // 2
        self.modal = ortho_basis(cfg.q)

        rule = space.elem_rule
        self.wq = rule.weights
        self.ref_pts = rule.points
        self.B = space.basis.eval(rule.points, 0)  # (nq, nloc)
        Gh = space.basis.eval(rule.points, 1)
        Hh = space.basis.eval(rule.points, 2)
        self.Bm = self.modal.eval(rule.points, 0)  # (nq, nmod)

        iJ = space.invJ
        # physical derivatives of shape functions at element quad points
        self.PG = np.einsum("eki,qlk->eqli", iJ, Gh)
        self.PH = np.einsum("eki,qlkm,emj->eqlij", iJ, Hh, iJ)
        # physical quad points, (ne, nq, 2)
        self.X = space.v0[:, None, :] + np.einsum("eij,qj->eqi", space.J, rule.points)

        self.faces, ahess = face_tables(space, self.modal)
        self._assemble_volume()
        self._assemble_faces(ahess)
        self._assemble_modal_maps()
        self._combine()

    # ------------------------------------------------------------------ volume
    def _assemble_volume(self):
        sp_ = self.space
        w, dJ = self.wq, sp_.detJ
        B, PG, PH = self.B, self.PG, self.PH
        lapl = np.einsum("eqlii->eql", PH)
        loc0 = np.einsum("q,qa,qb->ab", w, B, B)
        M0 = dJ[:, None, None] * loc0[None]
        M1 = np.einsum("e,q,eqai,eqbi->eab", dJ, w, PG, PG)
        M2 = np.einsum("e,q,eqaij,eqbij->eab", dJ, w, PH, PH)
        ML = np.einsum("e,q,eqa,eqb->eab", dJ, w, lapl, lapl)
        rows, cols = sp_.dofmap[:, :, None], sp_.dofmap[:, None, :]
        self.M0, self.M1, self.M2, self.ML = (
            assemble_csr(rows, cols, M, (sp_.dim, sp_.dim)) for M in (M0, M1, M2, ML)
        )

    # ------------------------------------------------------------------- faces
    def _assemble_faces(self, ahess):
        ft = self.faces
        n, wq, jval, jgrad = ft.normal, ft.wq, ft.jval, ft.jgrad
        t = np.stack([-n[:, 1], n[:, 0]], axis=1)
        rows, cols = ft.dofs[:, :, None], ft.dofs[:, None, :]
        shape = (self.space.dim, self.space.dim)

        # jump penalty ingredients (raw, unweighted by sigma/rho); gradient
        # jumps are penalized on interior faces only
        I = ft.interior
        h = ft.length[:, None, None]
        loc = (1.0 / h[I]) * np.einsum("fq,fqai,fqbi->fab", wq[I], jgrad[I], jgrad[I])
        self.Jgrad = assemble_csr(rows[I], cols[I], loc, shape)
        loc = (1.0 / h**3) * np.einsum("fq,fqa,fqb->fab", wq, jval, jval)
        self.Jval = assemble_csr(rows, cols, loc, shape)

        # facewise stabilization terms; the tangential-tangential part lives
        # on interior faces only
        tHn = np.einsum("fi,fqaij,fj->fqa", t, ahess, n)
        tj = np.einsum("fqai,fi->fqa", jgrad, t)
        tt = np.einsum("fi,fqaij,fj->fqa", t, ahess, t)
        jn = np.einsum("fqai,fi->fqa", jgrad, n)
        loc = -np.einsum("fq,fqa,fqb->fab", wq, tHn, tj)
        l2 = np.einsum("fq,fqa,fqb->fab", wq * I[:, None], tt, jn)
        loc = loc + loc.transpose(0, 2, 1) + l2 + l2.transpose(0, 2, 1)
        self.Sface = assemble_csr(rows, cols, loc, shape)

    # -------------------------------------------------------- modal coefficient maps
    def _assemble_modal_maps(self):
        sp_ = self.space
        ne, nmod = sp_.mesh.n_elements, self.nmod
        shape = (ne * nmod, sp_.dim)
        mods = np.arange(nmod)

        # broken Hessian maps: modal coefficients of each shape function's
        # physical Hessian components (exact since p - 2 <= q)
        coeff = np.einsum("q,qa,eqlij->eailj", self.wq, self.Bm, self.PH)
        rows = (np.arange(ne)[:, None] * nmod + mods)[:, :, None]
        cols = sp_.dofmap[:, None, :]
        self.D2 = {
            (i, j): assemble_csr(rows, cols, coeff[:, :, i, :, j], shape)
            for (i, j) in ((0, 0), (0, 1), (1, 1))
        }

        # lifting maps R[(i, j)] of the gradient jumps; boundary faces lift
        # only the tangential part of the trace
        ft = self.faces
        n, g = ft.normal, ft.jgrad
        tangential = g - np.einsum("fqai,fi,fj->fqaj", g, n, n)
        src = np.where(ft.interior[:, None, None, None], g, tangential)
        scale = ft.avg / sp_.detJ[ft.elems]  # the plus side of a boundary face is 0
        elems = ft.elems[:, :, None]
        rows = np.where(elems >= 0, elems * nmod + mods, -1)[..., None]
        cols = ft.dofs[:, None, None, :]
        self.R = {}
        for i in (0, 1):
            loc = np.einsum("fq,fqa,fsqm->fsma", ft.wq, src[..., i], ft.psi)
            for j in (0, 1):
                data = (scale * n[:, j, None])[:, :, None, None] * loc
                self.R[(i, j)] = assemble_csr(rows, cols, data, shape)

        # diagonal of the modal L2 inner product: int_K psi_a psi_b = detJ_e δ_ab
        self.Wmod = np.repeat(sp_.detJ, nmod)

    def _combine(self):
        D2, R = self.D2, self.R
        self.TrR = (R[(0, 0)] + R[(1, 1)]).tocsr()
        self.Delta_k = (D2[(0, 0)] + D2[(1, 1)] - self.TrR).tocsr()
        self.S_facewise = (self.M2 - self.ML + self.Sface).tocsr()
        self.norm_gram = (self.M2 + self.M1 + self.M0 + self.Jgrad + self.Jval).tocsr()
        self.jump_gram = (self.Jgrad + self.Jval).tocsr()

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
        loc = self.space.local_coeffs(u.coeffs)
        return np.einsum("eqlij,el->eqij", self.PH, loc)

    def penalty_matrix(self, params: FormParams) -> sp.csr_matrix:
        return (params.sigma * self.Jgrad + params.rho * self.Jval).tocsr()


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


def jump_seminorm(space: FESpace, v) -> float:
    ops = get_operators(space)
    x = _vec(v)
    return float(np.sqrt(max(x @ (ops.jump_gram @ x), 0.0)))


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
    uH = ops.hessian_at_qp(u)
    g, _, _ = cordes.f_gamma_field(
        problem, ops.X.reshape(-1, 2), uH.reshape(-1, 2, 2)
    )
    g = g.reshape(ne, nq)
    mvec = np.einsum("e,q,eq,qa->ea", space.detJ, ops.wq, g, ops.Bm).ravel()
    lin = (params.theta * ops.S_facewise + ops.penalty_matrix(params)) @ u.coeffs
    return ops.Delta_k.T @ mvec + lin


def frozen_jacobian(
    space: FESpace,
    problem: cordes.ControlProblem,
    u: DiscreteFunction,
    params: FormParams,
) -> sp.csr_matrix:
    """Linearization of the residual with controls frozen at the pointwise
    optimizers of F_gamma at the state u."""
    _validate_params(params, space.config.s)
    ops = get_operators(space)
    ne, nq, nmod = space.mesh.n_elements, len(ops.wq), ops.nmod
    uH = ops.hessian_at_qp(u)
    c = cordes.frozen_coefficients(
        problem, ops.X.reshape(-1, 2), uH.reshape(-1, 2, 2)
    ).reshape(ne, nq, 2, 2)

    N = sp.csr_matrix((space.dim, space.dim))
    for (i, j), mult in (((0, 0), 1.0), ((0, 1), 2.0), ((1, 1), 1.0)):
        # per-element blocks detJ * Bm^T diag(wq * c_ij) Bm
        blocks = np.einsum(
            "e,q,eq,qa,qb->eab", space.detJ, ops.wq, c[:, :, i, j], ops.Bm, ops.Bm
        )
        P = sp.bsr_matrix(
            (blocks, np.arange(ne), np.arange(ne + 1)),
            shape=(ne * nmod, ne * nmod),
        )
        N = N + mult * (ops.Delta_k.T @ (P @ ops.D2[(i, j)]))
    lin = params.theta * ops.S_facewise + ops.penalty_matrix(params)
    return (N + lin).tocsr()


# ------------------------------------------------------------------ lifted fields


@dataclass
class LiftedHessianField:
    """Per-element modal representations of the Hessian, the lifted gradient
    jump, the lifted Hessian and the lifted Laplacian of one function."""

    space: FESpace
    hess: np.ndarray  # (ne, nmod, 2, 2) broken Hessian
    lift: np.ndarray  # (ne, nmod, 2, 2) lifting of the gradient jumps
    modal_degree: int

    @property
    def lifted_hess(self) -> np.ndarray:
        return self.hess - self.lift

    @property
    def lifted_lapl(self) -> np.ndarray:
        return np.einsum("emii->em", self.lifted_hess)


def lifted_hessian(space: FESpace, v: DiscreteFunction) -> LiftedHessianField:
    ops = get_operators(space)
    ne, nmod = space.mesh.n_elements, ops.nmod
    hess = np.zeros((ne, nmod, 2, 2))
    lift = np.zeros((ne, nmod, 2, 2))
    x = _vec(v)
    for (i, j), A in ops.D2.items():
        comp = (A @ x).reshape(ne, nmod)
        hess[:, :, i, j] = comp
        if i != j:
            hess[:, :, j, i] = comp
    for (i, j), A in ops.R.items():
        lift[:, :, i, j] = (A @ x).reshape(ne, nmod)
    return LiftedHessianField(space, hess, lift, space.config.q)
