"""Bilinear forms, the lifted Laplacian and nonlinear residual assembly.

The stabilization form is assembled from its facewise definition (volume
Hessian terms plus tangential face terms). The test suite assembles it
again through the lifted Hessians (`tests/lifted_oracle.py`); their
agreement to roundoff is the sharpest internal consistency check of face
terms, liftings and normal conventions.

Lifted quantities are represented by modal coefficients in the orthonormal
degree-q basis per element, so liftings reduce to face integrals against
modal traces.

All face terms (penalties, facewise stabilization, liftings, and the jump
seminorm and estimator jumps as sums of squares) read one `FaceTables` per
space. A face side lies on one of six directed reference edges, whose
tables (`edge_tables`) are built once per process, so its traces are a
gather contracted with the face's normal and tangent, the only directions
the face terms read. A boundary face is a two-sided face whose plus
side has weight 0 and dofs dim, the absent dof of `fespace`, so face
integrals have no interior/boundary branch. Face Grams are one
weighted-Gram matmul each (`_gram`). Element maps are affine, so each kind
of element block is one matmul of coefficients of invJ and detJ with a
reference tensor (`elem_tensors`, built once per process; Kirby and Logg,
ACM TOMS 32 (2006)).

A DG space assembles the gradient and value jumps and both facewise
stabilization terms. A C0 space, continuous and zero on the boundary, has
[v] = 0 and t . [grad v] = 0 on every face, so it builds only the normal
gradient jumps and the tangential-tangential term: the others would
assemble to roundoff, and rho has no effect on it.

Every square matrix lives on one `Pattern` per space, the dof pairs that
share a face: its int32 slot maps send face blocks and element patches
into it, so a matrix is one `np.bincount` of local blocks and sums of
matrices are sums of aligned data arrays. Every matrix stores the whole
pattern, explicit zeros included, and shares its read-only index arrays,
which the space's dof numbering puts in factor order, so the solver
factors each matrix as it is stored. Delta_k^T is one patch per element,
in the rows of its own and its neighbours' dofs: a residual applies the
patches as one batched product, and a frozen Jacobian scatters
Delta_k^T G, whose element blocks are one product with a reference
tensor, in one `np.bincount`.

Newton's u-independent work is done once per space: `Operators` caches the
coefficient table of the last problem and the linear part of the last
`FormParams`. `Operators.inf_sup` is the one inf-sup of an iterate: it
keeps F_gamma and the optimal controls with a copy of the coefficients it
saw, so the residual, the frozen Jacobian and the estimator at equal
coefficients and the same problem share one evaluation. `face_jumps` keeps
its last per-face jumps the same way, so the estimator and the error norm
of one iterate share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from . import cordes
from .basis import ortho_basis, rule_tables
from .fespace import DiscreteFunction, FESpace, SpaceError, gather
from .fespace import _chain_rule
from .quadrature import segment_rule, triangle_rule


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


@dataclass(frozen=True)
class FaceTables:
    """Struct-of-arrays traces of the local shape functions on all faces.

    Every face is two-sided. The plus side of a boundary face has element
    -1, dofs dim and jump and average weights 0, so interior and boundary
    faces share one code path. The `2 nloc` local dofs of a face are those
    of its minus element followed by those of its plus element.
    """

    elems: np.ndarray  # (nf, 2) minus and plus element, plus -1 on the boundary
    interior: np.ndarray  # (nf,) bool
    length: np.ndarray  # (nf,)
    wq: np.ndarray  # (nf, nqf) physical weights of the face rule (face_exactness)
    avg: np.ndarray  # (nf, 2) average weights, (1/2, 1/2) or (1, 0)
    dofs: np.ndarray  # (nf, 2 nloc), dim on the missing side and Dirichlet dofs
    jval: np.ndarray  # (nf, nqf, 2 nloc) value jumps of the face shape functions
    jgrad: np.ndarray  # (nf, nqf, 2 nloc, 2) n . and t . gradient jumps
    psi: np.ndarray  # (nf, 2, nqf, nmod) modal traces per side


@cache
def edge_tables(basis, modal, exactness: int) -> tuple:
    """`basis` values, gradients and Hessians and `modal` values (6, nqf, n,
    ...) at R[a] + t (R[b] - R[a]), t on the face rule of `exactness`, on
    the directed reference edges (a, b), a != b, at index 2a + b - (b > a);
    read-only. `face_tables` contracts the gradients and Hessians in the
    face frame, so `FaceTables.jgrad` holds n . and t . [grad v]."""
    t = segment_rule(exactness).points
    R = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = np.concatenate([R[a] + t * (R[b] - R[a])
                          for a in range(3) for b in range(3) if a != b])
    tabs = [basis.eval(pts, k) for k in (0, 1, 2)] + [modal.eval(pts, 0)]
    for tab in tabs:
        tab.flags.writeable = False
    return tuple(tab.reshape(6, len(t), *tab.shape[1:]) for tab in tabs)


def face_tables(space: FESpace, modal) -> tuple:
    """FaceTables of a space on its face rule, exact to `face_exactness`, and
    the averaged Hessian traces t . <D^2 v> n (None for a C0 space) and
    t . <D^2 v> t (nf, nqf, 2 nloc). A side's traces are a gather from
    `edge_tables` and one batched matmul per table with its weighted frame
    maps: invJ n and invJ t (so `jgrad` holds n . and t . [grad v]) for the
    gradients, their outer products for the Hessians."""
    mesh = space.mesh
    nf, nloc, fv, n = mesh.n_faces, space.nloc, mesh.face_verts, mesh.face_normals
    frule = segment_rule(space.config.face_exactness)
    length = np.hypot(*(mesh.vertices[fv[:, 1]] - mesh.vertices[fv[:, 0]]).T)
    elems = mesh.face_elems
    interior = elems[:, 1] >= 0
    # the missing plus side borrows the minus element; its zero weights and
    # absent dofs keep it out of every sum
    side = np.where(elems >= 0, elems, elems[:, :1])
    # local vertices a, b of each side at the face's vertices, (nf, 2) each
    a, b = (np.argmax(mesh.tri[side] == fv[:, i, None, None], axis=2) for i in (0, 1))
    tabs = edge_tables(space.basis, modal, frule.exactness)
    val, grad, hess, psi = (t[2 * a + b - (b > a)] for t in tabs)
    jump = np.where(interior[:, None], [1.0, -1.0], [1.0, 0.0])
    avg = np.where(interior[:, None], [0.5, 0.5], [1.0, 0.0])
    # each side's invJ n and invJ t (nf, 2, 2, 2) and, flattened as the
    # Hessians, (invJ t)(invJ n)^T, which a C0 space (s = 1) skips, and
    # (invJ t)(invJ t)^T, weighted by the side's jump and average weights
    t = np.stack([-n[:, 1], n[:, 0]], axis=1)
    g = space.invJ[side] @ np.stack([n, t], axis=2)[:, None]
    hmap = g[..., :, None, 1:] * g[..., None, :, space.config.s:]
    hmap = (avg[:, :, None, None, None] * hmap).reshape(2 * nf, 4, -1)
    jmap = (jump[:, :, None, None] * g).reshape(2 * nf, 2, 2)
    # the sides merged: (nf, nqf, 2 nloc, 2) and (r, nf, nqf, 2 nloc)
    jgrad = (grad.reshape(2 * nf, -1, 2) @ jmap).reshape(nf, 2, frule.n, nloc, 2)
    jgrad = np.moveaxis(jgrad, 1, 2).reshape(nf, frule.n, -1, 2)
    hess = (hess.reshape(2 * nf, -1, 4) @ hmap).reshape(nf, 2, frule.n, nloc, -1)
    hess = np.moveaxis(hess, (4, 1), (0, 3)).reshape(-1, nf, frule.n, 2 * nloc)
    jval = np.multiply(jump.reshape(nf, 1, 2, 1), np.moveaxis(val, 1, 2),
                       out=np.empty((nf, frule.n, 2, nloc)))
    dofs = np.where(elems[:, :, None] >= 0, space.dofmap[side], space.dim)
    tables = FaceTables(
        elems=elems, interior=interior, length=length, avg=avg, jgrad=jgrad,
        wq=frule.weights[None, :] * length[:, None], psi=psi,
        dofs=dofs.reshape(nf, 2 * nloc), jval=jval.reshape(nf, frule.n, -1))
    return tables, (hess[0] if len(hess) == 2 else None), hess[-1]


@cache
def elem_tensors(basis, modal, exactness: int) -> tuple:
    """On the triangle rule of `exactness`, read-only: `modal` values Bm
    (nq, nmod), flattened `basis` Hessians ref_hess (nq, nloc, 4), the
    frozen Jacobians' hess_tensor (4 nq, nmod nloc), the Hessian Gram K2
    (16, nloc^2) = sum_q w_q ref_hess[q, a, i] ref_hess[q, b, j] at
    (i j, a b), Kg (21, nloc^2), K2 over the gradient and value Grams, and
    KL (4, nloc nmod) = sum_q w_q ref_hess[q, a, i] Bm[q, m] at (i, a m)."""
    rule = triangle_rule(exactness)
    w = rule.weights
    val, grad, hess = rule_tables(basis, exactness)
    Bm = modal.eval(rule.points, 0)
    # K[(q, k), (m, a)] = Bm[q, m] ref_hess[q, a, k]
    hess_tensor = np.einsum("qm,qak->qkma", Bm, hess).reshape(4 * rule.n, -1)

    def gram(A):  # (c^2, nloc^2) over the components c of a (nq, nloc, c) table
        return np.einsum("q,qak,qbl->klab", w, A, A).reshape(A.shape[2] ** 2, -1)

    K2 = gram(hess)
    Kg = np.concatenate([K2, gram(grad), gram(val)])
    KL = np.einsum("q,qak,qj->kaj", w, hess, Bm).reshape(4, -1)
    tabs = (Bm, hess, hess_tensor, K2, Kg, KL)
    for tab in tabs:
        tab.flags.writeable = False
    return tabs


def _gram(w, A, B=None):
    """Weighted Gram blocks sum_q w_q A[q, a, ...] . B[q, b, ...], (n, na, nb),
    of (n, nq, na, ...) tables (B defaults to A) and weights (nq,) or (n, nq),
    as one batched matmul over the quadrature points and components."""
    # rows of At, Bt: (quadrature point, component); sizes fit empty batches
    n, nq, c = A.shape[0], A.shape[1], int(np.prod(A.shape[3:]))
    At = np.moveaxis(A, 2, 1).reshape(n, A.shape[2], nq * c)
    Bt = At if B is None else np.moveaxis(B, 2, 1).reshape(n, B.shape[2], nq * c)
    w = np.repeat(w, c, axis=-1)[..., None, :]
    At = At * w  # with B given, the unweighted rows are freed before the matmul
    return At @ Bt.transpose(0, 2, 1)


@dataclass(frozen=True)
class Pattern:
    """CSR pattern of the dof pairs that share a face, which holds every
    element pair, with int32 slot maps of the element patches (ne, 4 nloc,
    nloc), which hold every pair, and face blocks (nf, 2 nloc, 2 nloc) into
    it. A patch pairs its `rows`, the element's dofs and then its
    neighbour's across each local face, with the element's dofs. A pair
    with an absent dof dim has the extra slot nnz, which `scatter` drops."""

    indptr: np.ndarray
    indices: np.ndarray
    face: np.ndarray
    patch: np.ndarray
    rows: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def scatter(self, slots: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Data on the pattern: the sum of the local blocks at their slots."""
        return np.bincount(slots.ravel(), blocks.ravel(), minlength=self.nnz + 1)[:-1]

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix of `data` on the whole pattern, explicit zeros
        included, sharing the pattern's read-only index arrays (copy it to
        change its structure in place)."""
        n = len(self.indptr) - 1
        matrix = sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))
        matrix.has_canonical_format = True  # the indices come from one sort
        return matrix


def face_pattern(ft: FaceTables, ef: np.ndarray, sd: np.ndarray, dim: int) -> Pattern:
    """The Pattern of a space from its FaceTables and element faces and
    sides: one in-place sort of the patch keys, packed with their positions
    and a third fewer than the face blocks', and face slots from patch slots."""
    nf, m = ft.dofs.shape
    nloc, ne = m // 2, len(ef)
    dofs = ft.dofs.reshape(nf, 2, nloc)
    e0, s0, nb = ef[:, 0], sd[:, 0], 1 - sd
    # a patch: its element's rows, then its neighbour's across each face
    rows = np.concatenate([dofs[e0, s0][:, None], dofs[ef, nb]], 1).reshape(ne, -1)
    cols = dofs[e0, s0][:, None, :]
    n = rows.size * nloc
    bits = (n - 1).bit_length()  # of a position
    if (dim * dim).bit_length() + bits > 63:
        raise SpaceError(f"{dim} dofs and {n} patch keys overflow int64 keys")
    # sort (row dim + col) << bits | position; a missing pair's dim^2 sorts last
    keys = (rows[:, :, None] * dim + cols).ravel()
    keys[((rows[:, :, None] == dim) | (cols == dim)).ravel()] = dim * dim
    keys <<= bits
    keys |= np.arange(n)
    keys.sort()
    pos = (keys & ((1 << bits) - 1)).astype(np.int32)
    keys >>= bits
    first = np.r_[True, keys[1:] != keys[:-1]]  # a pair's first key
    keys = keys[first]  # the pairs, then dim^2 if a pair is missing: slot nnz
    pairs = keys[: np.searchsorted(keys, dim * dim)]
    starts = np.arange(dim + 1) * dim  # each row's first key
    indptr = np.searchsorted(pairs, starts).astype(np.int32)
    indices = (pairs - np.repeat(starts[:-1], np.diff(indptr))).astype(np.int32)
    # matrices on the whole pattern share these
    indptr.flags.writeable = indices.flags.writeable = False
    first[0] = False  # its cumulative sum is now each sorted key's slot
    patch = np.empty((ne + 1, 4, nloc, nloc), np.int32)
    patch[:ne].ravel()[pos] = np.cumsum(first, dtype=np.int32)
    patch[ne] = len(indices)  # a pad of missing pairs, which element -1 reads
    # face block (r, c) pairs side r's rows with side c's dofs: side c's
    # element's patch block 0 (r = c) or 1 + its local face (r != c)
    local = np.zeros((nf, 2), dtype=int)
    local[ef, sd] = np.arange(3)
    blk = np.where(np.eye(2, dtype=bool), 0, 1 + local[:, None, :])
    face = patch[ft.elems[:, None, :], blk].transpose(0, 1, 3, 2, 4).reshape(nf, m, m)
    return Pattern(indptr, indices, face, patch[:ne].reshape(ne, 4 * nloc, nloc), rows)


class Operators:
    """The matrices of one FESpace on its face Pattern, Delta_k^T as element
    patches, and caches of its Newton data. It keeps no reference to the
    space, which holds it, so it is freed with the space without the GC."""

    def __init__(self, space: FESpace):
        cfg = space.config
        self.dg = cfg.s == 0
        self.nmod = (cfg.q + 1) * (cfg.q + 2) // 2
        self.modal = ortho_basis(cfg.q)

        rule = space.elem_rule
        self.wq = rule.weights
        # the reference tensors; inf_sup reads ref_hess, frozen_jacobian hess_tensor
        tensors = elem_tensors(space.basis, self.modal, cfg.quad_exactness)
        self.Bm, self.ref_hess, self.hess_tensor = tensors[:3]
        self.X = space.points(rule.points)  # physical quad points, (ne, nq, 2)
        self.detJ, self.invJ = space.detJ, space.invJ

        self.faces, *hess = face_tables(space, self.modal)
        ef = space.mesh.elem_faces  # each element's faces and its side of each
        sd = (self.faces.elems[ef, 1] == np.arange(len(ef))[:, None]).astype(int)
        P = self.pattern = face_pattern(self.faces, ef, sd, space.dim)
        # Delta_k^T as element patches (ne, 4 nloc, nmod); the jump penalty
        # and S_facewise data on the pattern, which the linear part sums
        gram, stab, lap = self._volume(*tensors[3:])
        sface, self.patch = self._faces(hess, lap, ef, sd)
        elem = P.patch[:, : space.nloc]  # the element blocks' slots
        self._stab = P.scatter(elem, stab) + sface
        del lap, stab, sface  # dead before the last scatter
        data = P.scatter(elem, gram) + self._jgrad
        data += self._jval
        self.norm_gram = P.csr(data)
        self._table = None  # (problem, cordes.CoefficientTable)
        self._inf_sup = None  # (problem, coefficients, F_gamma, opt_alpha, opt_beta)
        self._jumps = None  # (coefficients, grad, val) of the last face_jumps
        self._linear = None  # (FormParams, linear part, its data)

    # ------------------------------------------------------------------ volume
    def _volume(self, K2, Kg, KL):
        """Element blocks of M2 + M1 + M0 (norm Gram) and M2 - ML (facewise
        stabilization), and the modal coefficients of the shape functions'
        Laplacians, transposed, from the `elem_tensors`. The Hessian chain
        rule T = invJ (x) invJ has T T^T = A (x) A, A = invJ invJ^T, and
        takes a Hessian to its Laplacian by t = vec A."""
        ne, nloc, detJ = len(self.detJ), self.ref_hess.shape[1], self.detJ[:, None]
        A = self.invJ @ self.invJ.transpose(0, 2, 1)
        t = A.reshape(ne, 4)
        TT = (A[:, :, None, :, None] * A[:, None, :, None, :]).reshape(ne, 16)
        tt = (t[:, :, None] * t[:, None, :]).reshape(ne, 16)
        gram = (detJ * np.concatenate([TT, t, np.ones((ne, 1))], 1)) @ Kg
        stab = (detJ * (TT - tt)) @ K2
        lap = t @ KL
        return (gram.reshape(ne, nloc, nloc), stab.reshape(ne, nloc, nloc),
                lap.reshape(ne, nloc, -1))

    # ------------------------------------------------------------------- faces
    def _faces(self, hess, lap, ef, sd):
        """Sets the jump penalties' data _jgrad and _jval; returns the data on
        the pattern of the facewise stabilization's face blocks, from the list
        `hess` of `face_tables` Hessian traces, which it empties before their
        scatter, and the Delta_k^T patches, the Laplacian blocks `lap` minus
        the sides' lifted traces R00 + R11, scattering each face Gram when
        built. A DG space assembles [grad v], [v], -(t . <D^2 v> n)(t . [grad w])
        and (t . <D^2 v> t)(n . [grad w]); a C0 space, where [v] = 0 and
        t . [grad v] = 0, n . [grad v] and the second term, and a zero-stride _jval."""
        ft, P = self.faces, self.pattern
        wq, jval, jgrad = ft.wq, ft.jval, ft.jgrad
        jn = jgrad[..., 0]  # n . [grad v]; jgrad[..., 1] is t . [grad v]

        # raw jump penalties (unweighted by sigma, rho), each Gram scaled in
        # place; gradient jumps on interior faces only, a C0 space's normal ones
        I, h = ft.interior, ft.length[:, None, None]
        gram = _gram(wq[I], (jgrad if self.dg else jn)[I])
        self._jgrad = P.scatter(P.face[I], np.multiply(1.0 / h[I], gram, out=gram))
        if self.dg:
            gram = _gram(wq, jval)
            self._jval = P.scatter(P.face, np.multiply(1.0 / h**3, gram, out=gram))
            del gram

            # facewise stabilization terms; the tangential-tangential part
            # lives on interior faces only
            sface = -_gram(wq, hess[0], jgrad[..., 1])
            sface = sface + sface.transpose(0, 2, 1)
            l2 = _gram(wq * I[:, None], hess[1], jn)
            sface += l2
        else:
            del gram
            self._jval = np.broadcast_to(0.0, P.nnz)
            sface = l2 = _gram(wq * I[:, None], hess[1], jn)
        hess.clear()  # the caller's list, so the contractions are freed here
        sface += l2.transpose(0, 2, 1)
        del l2
        sface = P.scatter(P.face, sface)

        # R00 + R11 lifts n . [grad v]; a boundary face lifts the tangential
        # part of the trace, whose normal part is zero. A patch sums its
        # sides' lifts in its own rows, one product over (face, point)
        ne, nloc, nmod = lap.shape
        src = (wq[:, :, None] * I[:, None, None] * jn).transpose(0, 2, 1)
        src = np.ascontiguousarray(src).reshape(len(wq), 2, nloc, -1)
        psi = ft.psi[ef, sd] * -(ft.avg[ef, sd] / self.detJ[:, None])[..., None, None]
        own = src[ef, sd].transpose(0, 2, 1, 3).reshape(ne, nloc, -1)
        own = lap + own @ psi.reshape(ne, -1, nmod)
        patch = np.concatenate([own[:, None], src[ef, 1 - sd] @ psi], axis=1)
        return sface, patch.reshape(ne, 4 * nloc, nmod)

    @cached_property
    def S_facewise(self) -> sp.csr_matrix:
        return self.pattern.csr(self._stab)

    # ----------------------------------------------------- u-independent caches
    def coefficients(self, problem: cordes.ControlProblem) -> cordes.CoefficientTable:
        """Coefficient table of `problem` at the quadrature points X, kept
        until another problem (by identity) asks for it."""
        if self._table is None or self._table[0] is not problem:
            self._table = (problem, cordes.tabulate(problem, self.X.reshape(-1, 2)))
        return self._table[1]

    def linear_part(self, params: FormParams) -> tuple[sp.csr_matrix, np.ndarray]:
        """theta S_facewise plus sigma times the gradient-jump penalty and,
        for DG, rho times the value-jump penalty, and its data on the
        pattern, kept until other FormParams ask for them. The residual and
        the Jacobian read it, so it alone checks that a DG space has rho > 0."""
        if self._linear is None or self._linear[0] != params:
            if self.dg and params.rho <= 0.0:
                raise SpaceError("rho must be positive for the DG space (s=0)")
            data = params.theta * self._stab + params.sigma * self._jgrad
            if self.dg:  # a C0 space's _jval is a zero view, which a product copies
                data += params.rho * self._jval
            self._linear = (params, self.pattern.csr(data), data)
        return self._linear[1:]

    def penalty_gram(self, params: FormParams) -> sp.csr_matrix:
        """The norm Gram with its gradient- and value-jump penalties times
        sigma and rho, as the linear part weights them; built on each call."""
        data = self.norm_gram.data + (params.sigma - 1.0) * self._jgrad
        if self.dg:
            data += (params.rho - 1.0) * self._jval
        return self.pattern.csr(data)

    def inf_sup(self, problem: cordes.ControlProblem, u: DiscreteFunction):
        """`cordes.inf_sup` of `problem` at the Hessians of u, (F_gamma,
        opt_alpha, opt_beta), read-only: kept with a copy of u's
        coefficients and returned again while the problem (by identity) and
        the coefficients, which fix the Hessians, stay equal."""
        kept = self._inf_sup
        if (kept is None or kept[0] is not problem
                or not np.array_equal(kept[1], u.coeffs)):
            found = cordes.inf_sup(self.coefficients(problem),
                                   u.eval_table(self.ref_hess, 2))
            for a in found:
                a.flags.writeable = False
            kept = self._inf_sup = (problem, u.coeffs.copy(), *found)
        return kept[2:]


def get_operators(space: FESpace) -> Operators:
    if space._ops is None:
        space._ops = Operators(space)
    return space._ops


# ---------------------------------------------------------------------- public API


def stab_form(space: FESpace, w, v) -> float:
    """Stabilization bilinear form, from its facewise definition."""
    return float(_vec(w) @ (get_operators(space).S_facewise @ _vec(v)))


def norm_k(space: FESpace, v) -> float:
    x = _vec(v)
    return float(np.sqrt(max(x @ (get_operators(space).norm_gram @ x), 0.0)))


def face_jumps(space: FESpace, v) -> tuple[np.ndarray, np.ndarray]:
    """Per-face (1/h) int |[grad v]|^2 (interior faces) and h^-3 int [v]^2:
    sums of squares of jump traces, accurate where the jump penalties'
    quadratic form cancels (C0 value jumps, small gradient jumps on fine
    meshes), read-only: kept by the space's Operators with a copy of the
    coefficients and returned again while they stay equal."""
    ops, coeffs = get_operators(space), _vec(v)
    if ops._jumps is None or not np.array_equal(ops._jumps[0], coeffs):
        ft = ops.faces
        x = gather(coeffs, ft.dofs)
        jv = np.einsum("fqa,fa->fq", ft.jval, x)
        jg = np.einsum("fqai,fa->fqi", ft.jgrad, x)
        grad = ft.interior * np.einsum("fq,fqi,fqi->f", ft.wq, jg, jg) / ft.length
        val = np.einsum("fq,fq->f", ft.wq, jv**2) / ft.length**3
        grad.flags.writeable = val.flags.writeable = False
        ops._jumps = (coeffs.copy(), grad, val)
    return ops._jumps[1:]


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
    ops = get_operators(space)
    lin, _ = ops.linear_part(params)
    g, _, _ = ops.inf_sup(problem, u)
    mvec = ((space.detJ[:, None] * ops.wq) * g.reshape(len(space.detJ), -1)) @ ops.Bm
    # Delta_k^T mvec from the element patches, one batched product
    vals = (ops.patch @ mvec[:, :, None]).ravel()
    delta = np.bincount(ops.pattern.rows.ravel(), vals, minlength=space.dim + 1)
    return delta[:-1] + lin @ u.coeffs


def jacobian_coefficients(space: FESpace, problem: cordes.ControlProblem,
                          u: DiscreteFunction) -> np.ndarray:
    """The frozen coefficients c (ne, nq, 4) of the Jacobian at u: gamma a at
    the optimal controls kept by the last residual at u, times detJ wq, by
    the chain rule with the transposed inverse Jacobians (c T^T)."""
    ops, ne = get_operators(space), len(space.detJ)
    c = ops.coefficients(problem).frozen(*ops.inf_sup(problem, u)[1:])
    c = c.reshape(ne, -1, 4) * (space.detJ[:, None] * ops.wq)[:, :, None]
    return _chain_rule(c, space.invJ.transpose(0, 2, 1), 2)


def frozen_jacobian(space: FESpace, c: np.ndarray, params: FormParams) -> sp.csr_matrix:
    """Linearization of the residual with the controls frozen, from its
    `jacobian_coefficients` c: Delta_k^T G plus the linear part.

    G maps dofs to the modal coefficients of the frozen gamma a : D^2 v; its
    element blocks are detJ Bm^T diag(wq c_ij) PH_ij summed over i, j, exact
    without a modal projection of PH (degree p - 2 <= q). As PH = ref_hess
    T, T the element's Hessian chain rule, a block is c (nq, 4) times the
    reference tensor K. The patches of Delta_k^T G are scattered into the
    data of the linear part, on the whole pattern."""
    ops = get_operators(space)
    P, ne = ops.pattern, len(c)
    G = (c.reshape(ne, -1) @ ops.hess_tensor).reshape(ne, ops.nmod, -1)
    data = P.scatter(P.patch, ops.patch @ G)
    data += ops.linear_part(params)[1]
    return P.csr(data)


def jacobian_terms(space: FESpace, points: np.ndarray, dc: np.ndarray) -> tuple:
    """(U, V), sparse (dim, r), with J(c) - J(c0) = U V^T where the frozen
    coefficients differ by dc (r, 4) at the flat quadrature points K nq + q
    in `points`: U's column is patch[K] Bm[q] in the rows `pattern.rows[K]`,
    V's ref_hess[q] dc in the element's own; the absent dof dim cut."""
    ops = get_operators(space)
    K, q = np.divmod(points, len(ops.wq))
    rows, r = ops.pattern.rows[K], len(points)
    terms = ((ops.patch[K] @ ops.Bm[q][:, :, None], rows),
             (ops.ref_hess[q] @ dc[:, :, None], rows[:, : space.nloc]))
    return tuple(sp.csc_matrix((t.ravel(), i.ravel(), i.shape[1] * np.arange(r + 1)),
                               shape=(space.dim + 1, r))[:-1] for t, i in terms)
