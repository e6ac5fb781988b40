"""Polynomial bases on the reference triangle (0,0)-(1,0)-(0,1).

Two families are provided: an L2-orthonormal modal basis (Gram-Schmidt via
Cholesky of the monomial mass matrix) used for DG spaces and liftings, and a
Lagrange basis on the principal lattice used for C0 spaces. Both are stored
as coefficient matrices over the monomials, so values and derivatives up to
second order are exact. Each basis is built once per degree and process and
shared, so its arrays are read-only.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .quadrature import triangle_rule


def monomial_exponents(p: int) -> np.ndarray:
    """Exponent pairs (i, j) for all monomials x^i y^j of total degree <= p,
    ordered by total degree, then descending i."""
    exps = []
    for d in range(p + 1):
        for j in range(d + 1):
            exps.append((d - j, j))
    return np.array(exps, dtype=np.int64)


def _eval_monomials(pts: np.ndarray, exps: np.ndarray, order: int) -> np.ndarray:
    # tables of x^k and y^k, k = -2..p, read at columns exponent + 2; 0^0 = 1,
    # and a negative exponent (a vanished derivative) gives 0
    k = np.arange(-2, int(exps.max(initial=0)) + 1)
    nonneg = k[k >= 0].astype(float)

    def powers(base):
        out = np.zeros((len(base), len(k)))
        flat = np.repeat(base, len(nonneg)) ** np.tile(nonneg, len(base))
        out[:, 2:] = flat.reshape(len(base), len(nonneg))
        return out

    X, Y = powers(pts[:, 0]), powers(pts[:, 1])
    i, j = exps[:, 0] + 2, exps[:, 1] + 2  # columns of the power tables
    fi, fj = exps[:, 0][None, :].astype(float), exps[:, 1][None, :].astype(float)

    if order == 0:  # C order like orders 1, 2: a matmul rounds by memory layout
        return np.ascontiguousarray(X[:, i] * Y[:, j])
    if order == 1:
        gx = fi * X[:, i - 1] * Y[:, j]
        gy = fj * X[:, i] * Y[:, j - 1]
        return np.stack([gx, gy], axis=-1)
    if order == 2:
        hxx = fi * (fi - 1) * X[:, i - 2] * Y[:, j]
        hxy = fi * fj * X[:, i - 1] * Y[:, j - 1]
        hyy = fj * (fj - 1) * X[:, i] * Y[:, j - 2]
        h = np.empty(hxx.shape + (2, 2))
        h[..., 0, 0] = hxx
        h[..., 0, 1] = hxy
        h[..., 1, 0] = hxy
        h[..., 1, 1] = hyy
        return h
    raise ValueError(f"derivative order {order} not supported (max 2)")


class RefBasis:
    """Basis phi_l = sum_m C[l, m] * monomial_m on the reference triangle."""

    def __init__(self, p: int, coeffs: np.ndarray):
        self.exps = monomial_exponents(p)
        self.coeffs = coeffs
        self.n = coeffs.shape[0]
        # the memoized bases are shared by every caller: writing must fail
        self.exps.flags.writeable = False
        self.coeffs.flags.writeable = False

    def eval(self, pts: np.ndarray, order: int = 0) -> np.ndarray:
        """Tabulate at reference points.

        Shapes: order 0 -> (npts, n); order 1 -> (npts, n, 2);
        order 2 -> (npts, n, 2, 2).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        mono = _eval_monomials(pts, self.exps, order)
        out = self.coeffs @ mono.reshape(len(pts), len(self.exps), 2**order)
        return out.reshape((len(pts), self.n) + mono.shape[2:])


@cache
def rule_tables(basis: RefBasis, exactness: int) -> tuple:
    """`basis` values, gradients and Hessians at triangle_rule(exactness), each
    (nq, n, 2^order) as `DiscreteFunction.eval_table` takes them; read-only."""
    pts = triangle_rule(exactness).points
    tabs = tuple(basis.eval(pts, k).reshape(len(pts), basis.n, -1) for k in (0, 1, 2))
    for tab in tabs:
        tab.flags.writeable = False
    return tabs


@cache
def ortho_basis(p: int) -> RefBasis:
    """L2(T_ref)-orthonormal basis, lowest mode first."""
    exps = monomial_exponents(p)
    rule = triangle_rule(2 * p)
    mono = _eval_monomials(rule.points, exps, 0)
    mass = np.einsum("q,qa,qb->ab", rule.weights, mono, mono)
    L = np.linalg.cholesky(mass)
    coeffs = np.linalg.inv(L)
    return RefBasis(p, coeffs)


def lagrange_nodes(p: int) -> np.ndarray:
    """Barycentric integer triples (i0, i1, i2), i0+i1+i2 = p, in a fixed
    deterministic order."""
    nodes = []
    for i2 in range(p + 1):
        for i1 in range(p + 1 - i2):
            nodes.append((p - i1 - i2, i1, i2))
    return np.array(nodes, dtype=np.int64)


def lagrange_ref_points(p: int) -> np.ndarray:
    bary = lagrange_nodes(p).astype(float) / p
    # reference vertices: v0=(0,0), v1=(1,0), v2=(0,1)
    return np.column_stack([bary[:, 1], bary[:, 2]])


@cache
def lagrange_basis(p: int) -> RefBasis:
    pts = lagrange_ref_points(p)
    exps = monomial_exponents(p)
    V = _eval_monomials(pts, exps, 0)  # (nodes, monomials)
    coeffs = np.linalg.inv(V).T
    return RefBasis(p, coeffs)
