"""Quadrature rules: positivity, normalization, and exactness.

Exactness is checked against the closed-form integral of barycentric
monomials over the reference simplex,

    int prod_i lambda_i^{p_i} = d! prod_i p_i! / (sum_i p_i + d)!

which an independent factorial evaluation provides (see oracles.py).  The
one-dimensional Gauss rules are a table; scipy.special checks it here.
"""

import itertools

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from vmsns.errors import ConfigurationError
from vmsns.quadrature import _GAUSS_01, MAX_ORDER, QuadratureRule, simplex_quadrature

from oracles import monomial_integral


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 8, 11, 15])
def test_weights_positive_and_normalized(dim, order):
    rule = simplex_quadrature(dim, order)
    assert isinstance(rule, QuadratureRule)
    assert rule.dim == dim
    assert rule.order >= order
    assert np.all(rule.weights > 0.0)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    # barycentric rows sum to one and lie inside the simplex
    assert rule.points.shape == (rule.weights.shape[0], dim + 1)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(rule.points > -1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, *range(7, 16)])
def test_exactness_up_to_stated_order(dim, order):
    """Every cartesian monomial of total degree <= the stated order is
    integrated exactly (weights are volume fractions, so the factorial
    integral is normalized by the simplex volume)."""
    rule = simplex_quadrature(dim, order)
    cart = rule.points[:, 1:]  # any dim columns work, by symmetry
    vol = monomial_integral([0] * dim)
    for total in range(rule.order + 1):
        for powers in itertools.product(range(total + 1), repeat=dim):
            if sum(powers) != total:
                continue
            vals = np.prod(cart ** np.asarray(powers), axis=1)
            got = float(rule.weights @ vals)
            want = monomial_integral(powers) / vol
            assert abs(got - want) < 1e-13, (powers, got, want)


TABLE = [(alpha, n) for alpha in (0, 1, 2) for n in range(1, 9)]


@pytest.mark.parametrize("alpha, n", TABLE)
def test_table_is_scipys_rule_on_the_unit_interval(alpha, n):
    """Each tabulated rule is scipy's Gauss-Legendre (alpha = 0) or
    Gauss-Jacobi (1 - x)^alpha rule mapped to [0, 1], to within one ulp."""
    t, w = roots_legendre(n) if alpha == 0 else roots_jacobi(n, float(alpha), 0.0)
    want_x, want_w = (t + 1.0) / 2.0, w / 2.0 ** (alpha + 1)
    x, w = (np.asarray(v) for v in _GAUSS_01[alpha][n - 1])
    assert x.shape == w.shape == (n,)
    assert np.all(np.abs(x - want_x) <= np.spacing(np.abs(want_x)))
    assert np.all(np.abs(w - want_w) <= np.spacing(np.abs(want_w)))


@pytest.mark.parametrize("alpha, n", TABLE)
def test_table_weights_are_positive_and_nodes_interior(alpha, n):
    """Positive weights keep every simplex rule's weights positive, and with
    them the discrete inner product on quadrature-point fields."""
    x, w = (np.asarray(v) for v in _GAUSS_01[alpha][n - 1])
    assert np.all(w > 0.0)
    assert np.all(np.diff(x) > 0.0) and 0.0 < x[0] and x[-1] < 1.0
    assert abs(w.sum() - 1.0 / (alpha + 1)) < 1e-15


@pytest.mark.parametrize("dim", [2, 3])
def test_order_beyond_the_table_rejected(dim):
    assert MAX_ORDER == 15
    assert simplex_quadrature(dim, MAX_ORDER).order == MAX_ORDER
    with pytest.raises(ConfigurationError, match="largest tabulated order 15"):
        simplex_quadrature(dim, MAX_ORDER + 1)


def test_first_inexact_degree_2d():
    # order-1 rule (single point) cannot integrate quadratics: make sure
    # the stated order is sharp, not conservative by accident
    rule = simplex_quadrature(2, 1)
    vals = rule.points[:, 1] ** 2
    got = float(rule.weights @ vals)
    want = monomial_integral((2, 0)) / monomial_integral((0, 0))
    assert abs(got - want) > 1e-3


def test_invalid_dimension_rejected():
    with pytest.raises(ConfigurationError):
        simplex_quadrature(1, 2)
    with pytest.raises(ConfigurationError):
        simplex_quadrature(4, 2)


def test_invalid_order_rejected():
    with pytest.raises(ConfigurationError):
        simplex_quadrature(2, -1)
    with pytest.raises(ConfigurationError):
        simplex_quadrature(2, 2.5)
