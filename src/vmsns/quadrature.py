"""Quadrature rules on reference simplices.

Rules are built as conical products of one-dimensional Gauss rules (a
Duffy-type collapse of the unit cube onto the simplex), one construction in
every dimension d.  The collapse maps

    x_k = s_k (1 - s_0) ... (1 - s_{k-1}),    k = 0, ..., d - 1,

with Jacobian prod_k (1 - s_k)^(d-1-k), so direction k absorbs its factor
exactly by Gauss-Jacobi weights (the last, with none, takes Gauss-Legendre)
and the product rule integrates any polynomial of total degree <= 2 n - 1
exactly, with n points per direction.  All weights are strictly positive,
which keeps the induced discrete inner product on quadrature-point fields
positive definite -- several projection operators downstream rely on that.

Points are stored in barycentric coordinates (dim + 1 entries per point,
summing to one); weights are stored as fractions of the reference volume and
sum to one.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import ConfigurationError

__all__ = ["QuadratureRule", "simplex_quadrature"]

#: reference simplex volumes: segment 1, triangle 1/2, tetrahedron 1/6
REFERENCE_VOLUME = {1: 1.0, 2: 0.5, 3: 1.0 / 6.0}


@dataclass(frozen=True)
class QuadratureRule:
    """A fixed quadrature rule on the reference simplex.

    Attributes
    ----------
    dim : int
        Simplex dimension (2 or 3).
    order : int
        Largest total polynomial degree integrated exactly.
    points : ndarray, shape (n_qp, dim + 1)
        Barycentric coordinates of the nodes; each row sums to one.
    weights : ndarray, shape (n_qp,)
        Volume fractions; strictly positive, summing to one.
    """

    dim: int
    order: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _gauss_01(n):
    """Gauss-Legendre nodes/weights for integrating over [0, 1]."""
    t, w = roots_legendre(n)
    return (t + 1.0) / 2.0, w / 2.0


def _gauss_jacobi_01(n, alpha):
    """Gauss-Jacobi nodes/weights on [0, 1] absorbing the weight (1-x)^alpha.

    Returns (x_i, w_i) with  sum_i w_i g(x_i) = int_0^1 g(x) (1-x)^alpha dx
    exact for polynomials g of degree <= 2 n - 1.
    """
    t, w = roots_jacobi(n, alpha, 0.0)
    # map [-1, 1] -> [0, 1]: x = (t+1)/2, (1-t)^alpha = 2^alpha (1-x)^alpha,
    # dt = 2 dx, so each weight picks up a factor 2^-(alpha+1).
    return (t + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def simplex_quadrature(dim, order):
    """Build a positive-weight rule exact to the requested total degree.

    Parameters
    ----------
    dim : int
        2 (triangles) or 3 (tetrahedra).
    order : int
        Requested exactness degree, >= 0.

    Returns
    -------
    QuadratureRule
        The stated ``order`` of the returned rule is 2 n - 1 >= order where
        n is the per-direction point count actually used.
    """
    if dim not in (2, 3):
        raise ConfigurationError(f"unsupported simplex dimension {dim} (expected 2 or 3)")
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ConfigurationError(f"quadrature order must be a nonnegative integer, got {order!r}")
    n = max(1, math.ceil((order + 1) / 2))
    achieved = 2 * n - 1

    # direction k absorbs (1 - s_k)^(dim-1-k); the last absorbs nothing
    rules = [*(_gauss_jacobi_01(n, float(dim - 1 - k)) for k in range(dim - 1)),
             _gauss_01(n)]
    grids = np.meshgrid(*(s for s, _ in rules), indexing="ij")
    # x_k = s_k (1 - s_0) ... (1 - s_{k-1}), multiplied left to right
    x = [functools.reduce(lambda x_k, s: x_k * (1.0 - s), grids[:k], s_k).ravel()
         for k, s_k in enumerate(grids)]
    w = functools.reduce(np.multiply.outer, (w for _, w in rules)).ravel()
    # the first barycentric coordinate, 1 - x_0 - ... - x_{d-1}
    bary = np.column_stack([functools.reduce(np.subtract, x, 1.0), *x])

    w = w / REFERENCE_VOLUME[dim]          # store as volume fractions
    # tidy up: the construction is exact, but renormalize the last few ulps
    # so downstream "weights sum to one" checks are bitwise friendly.
    w = w / w.sum()
    assert np.all(w > 0.0), "Gauss weights must be positive"
    return QuadratureRule(dim=dim, order=achieved, points=bary, weights=w)
