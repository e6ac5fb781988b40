"""Quadrature rules on the reference triangle and the unit segment.

Triangle rules are built from tensor Gauss-Legendre points through the
collapsed-coordinate (Duffy) map, which keeps all weights positive and gives
exactness for any requested polynomial degree. Each rule is built once per
process and shared, so its arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

MAX_EXACTNESS = 60


class QuadratureError(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (n, dim) reference coordinates
    weights: np.ndarray  # (n,) positive
    exactness: int

    @property
    def n(self) -> int:
        return len(self.weights)


def _check_exactness(exactness: int) -> None:
    if not (0 <= exactness <= MAX_EXACTNESS):
        raise QuadratureError(
            f"requested exactness {exactness} outside supported range "
            f"[0, {MAX_EXACTNESS}]"
        )


def _shared(rule: QuadratureRule) -> QuadratureRule:
    # a memoized rule is shared by every caller: writing into it must fail
    rule.points.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


@cache
def segment_rule(exactness: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1] exact for polynomials of the given degree."""
    _check_exactness(exactness)
    n = exactness // 2 + 1
    x, w = np.polynomial.legendre.leggauss(n)
    pts = 0.5 * (x + 1.0)
    wts = 0.5 * w
    return _shared(QuadratureRule(pts.reshape(-1, 1), wts, exactness))


@cache
def triangle_rule(exactness: int) -> QuadratureRule:
    """Rule on the reference triangle (0,0)-(1,0)-(0,1), positive weights.

    Under the collapsed map x=u, y=v(1-u) a bivariate polynomial of total
    degree d becomes a polynomial of degree d+1 in u (including the Jacobian
    factor 1-u) and degree d in v, which fixes the 1D point counts.
    """
    _check_exactness(exactness)
    nu = (exactness + 1) // 2 + 1
    nv = exactness // 2 + 1
    xu, wu = np.polynomial.legendre.leggauss(nu)
    xv, wv = np.polynomial.legendre.leggauss(nv)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    wu = 0.5 * wu
    wv = 0.5 * wv
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    w = (WU * WV * (1.0 - U)).ravel()
    return _shared(QuadratureRule(np.column_stack([x, y]), w, exactness))
