"""Orthogonal subscale machinery: relaxation time, residuals, updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmsns.config import ScenarioConfig
from vmsns.errors import ConfigurationError, InvariantViolation
from vmsns.fe import advection_factor, build_space
from vmsns.mesh import build_structured
from vmsns.subgrid import (
    advance_subscale,
    compute_tau,
    continuity_pairing,
    orthogonality_defect,
    project_orthogonal,
    residual_field,
    transport_pairing,
)

import oracles as orc


def _spaces(n=4):
    m = build_structured(2, n)
    V = build_space(m, components=2, constraint="zero_trace")
    Q = build_space(m, constraint="zero_mean")
    return V, Q


def _orthogonal_noise(V, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    tab = V.tabulation()
    raw = scale * rng.standard_normal(
        (V.mesh.n_cells, tab["weights"].shape[1], V.components))
    return project_orthogonal(raw, V)


# ---------------------------------------------------------------------------
# relaxation time
# ---------------------------------------------------------------------------

def test_tau_frozen_values():
    p = ScenarioConfig(nu=1.0)
    assert compute_tau(p, 1.0, 0.0) == 0.25
    assert compute_tau(p, 1.0, 10.0) == 1.0 / 24.0
    assert compute_tau(ScenarioConfig(nu=0.01, C_s=1.0, C_c=0.0), 0.5, 99.0) == 25.0


def test_tau_floor():
    p = ScenarioConfig(nu=1.0, tau_floor=0.5)
    assert compute_tau(p, 0.1, 0.0) == 0.5


def test_tau_argument_validation():
    p = ScenarioConfig(nu=1.0)
    with pytest.raises(ConfigurationError):
        compute_tau(p, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        compute_tau(p, 1.0, -1.0)


@settings(max_examples=50, deadline=None)
@given(
    nu=st.floats(1e-6, 1e3),
    bump=st.floats(0.0, 1e3),
    u=st.floats(0.0, 1e3),
    h=st.floats(1e-3, 10.0),
)
def test_tau_monotone_in_viscosity_and_velocity(nu, bump, u, h):
    base = compute_tau(ScenarioConfig(nu=nu), h, u)
    assert compute_tau(ScenarioConfig(nu=nu + bump), h, u) <= base
    assert compute_tau(ScenarioConfig(nu=nu), h, u + bump) <= base


# ---------------------------------------------------------------------------
# resolved residual
# ---------------------------------------------------------------------------

def _self_residual(V, Q, u, p):
    """The self-advected residual (u·∇)u + ½(∇·u)u + ∇p."""
    return residual_field(V, Q, u, p, advection_factor(V, u))


def test_residual_zero_state():
    V, Q = _spaces(2)
    res = _self_residual(V, Q, np.zeros(V.n_dofs), np.zeros(Q.n_dofs))
    assert np.max(np.abs(res)) == 0.0


def test_residual_of_linear_pressure_is_its_gradient():
    V, Q = _spaces(3)
    p = Q.nodes[:, 0] + 2.0 * Q.nodes[:, 1]
    res = _self_residual(V, Q, np.zeros(V.n_dofs), p)
    assert np.max(np.abs(res[:, :, 0] - 1.0)) < 1e-13
    assert np.max(np.abs(res[:, :, 1] - 2.0)) < 1e-13


def test_residual_pointwise_against_oracle():
    V, Q = _spaces(2)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(V.n_dofs)
    a = rng.standard_normal(V.n_dofs)
    p = rng.standard_normal(Q.n_dofs)
    res = residual_field(V, Q, u, p, advection_factor(V, a))
    tab = V.tabulation()
    for c in (0, 3, 5):
        want = orc.residual_at_points(V, Q, u, p, c, tab["points"][c], advection=a)
        assert orc.rel(res[c], want) < 1e-12


def test_residual_default_advection_is_self():
    """With the advection factor of u itself the residual is the
    self-advected one, the pointwise oracle's default."""
    V, Q = _spaces(2)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(V.n_dofs)
    p = rng.standard_normal(Q.n_dofs)
    res = _self_residual(V, Q, u, p)
    tab = V.tabulation()
    for c in (0, 3, 5):
        want = orc.residual_at_points(V, Q, u, p, c, tab["points"][c])
        assert orc.rel(res[c], want) < 1e-15


# ---------------------------------------------------------------------------
# complement projection
# ---------------------------------------------------------------------------

def test_projection_annihilates_fe_functions():
    V, _ = _spaces(4)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(V.n_dofs)
    perp = project_orthogonal(V.eval_at_qp(u), V)
    from vmsns.fe import quad_norm

    assert quad_norm(V, perp) < 1e-10 * max(quad_norm(V, V.eval_at_qp(u)), 1.0)


def test_projection_idempotent_and_orthogonal():
    V, _ = _spaces(4)
    perp = _orthogonal_noise(V, seed=2)
    again = project_orthogonal(perp, V)
    assert orc.rel(again, perp) < 1e-11
    # pairs to zero with every resolved basis function
    pairing = V.load_from_qp(perp)
    assert np.max(np.abs(pairing)) < 1e-12 * max(np.max(np.abs(perp)), 1.0)


def test_orthogonality_defect_extremes():
    V, _ = _spaces(3)
    assert orthogonality_defect(V, orc.zero_subscale(V)) == 0.0
    assert orthogonality_defect(V, _orthogonal_noise(V, seed=3)) < 1e-10
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal(V.n_dofs)
    assert orthogonality_defect(V, V.eval_at_qp(coeffs)) > 0.99


def test_advance_rejects_a_non_finite_update():
    V, _ = _spaces(2)
    tilde = orc.zero_subscale(V)
    tilde[0, 0, 0] = np.nan
    with pytest.raises(InvariantViolation):
        advance_subscale(V, tilde, orc.zero_subscale(V), 0.1, 0.01)


# ---------------------------------------------------------------------------
# subscale update
# ---------------------------------------------------------------------------

def test_advance_decay_without_forcing():
    """With zero residual the update is a pure relaxation by the closed
    factor 1 / (1 + dt/tau)."""
    V, _ = _spaces(3)
    tilde = _orthogonal_noise(V, seed=5)
    dt, tau = 0.01, 0.05
    new = advance_subscale(V, tilde, np.zeros_like(tilde), tau, dt)
    assert orc.rel(new, tilde / (1.0 + dt / tau)) < 1e-11


def test_advance_from_rest_closed_form():
    V, Q = _spaces(3)
    rng = np.random.default_rng(7)
    res = _self_residual(V, Q, rng.standard_normal(V.n_dofs),
                         rng.standard_normal(Q.n_dofs))
    dt, tau = 0.02, 0.1
    res_perp = project_orthogonal(res, V)
    new = advance_subscale(V, orc.zero_subscale(V), res_perp, tau, dt)
    assert orc.rel(new, -res_perp / (1.0 / dt + 1.0 / tau)) < 1e-11


def test_advance_result_stays_orthogonal():
    V, Q = _spaces(4)
    rng = np.random.default_rng(10)
    res = _self_residual(V, Q, rng.standard_normal(V.n_dofs),
                         rng.standard_normal(Q.n_dofs))
    new = advance_subscale(V, _orthogonal_noise(V, seed=11),
                           project_orthogonal(res, V), 0.07, 0.01)
    assert orthogonality_defect(V, new) < 1e-10


def test_advance_argument_validation():
    V, _ = _spaces(2)
    z = orc.zero_subscale(V)
    with pytest.raises(ConfigurationError):
        advance_subscale(V, z, z, 0.0, 0.01)
    with pytest.raises(ConfigurationError):
        advance_subscale(V, z, z, 0.1, -1.0)


# ---------------------------------------------------------------------------
# cross couplings
# ---------------------------------------------------------------------------

def test_cross_terms_vanish_for_zero_subscale():
    V, Q = _spaces(3)
    rng = np.random.default_rng(12)
    n_fac = advection_factor(V, rng.standard_normal(V.n_dofs))
    zero = orc.zero_subscale(V)
    mom, cont = transport_pairing(V, n_fac, zero), continuity_pairing(Q, zero)
    assert np.max(np.abs(mom)) == 0.0
    assert np.max(np.abs(cont)) == 0.0


def test_cross_momentum_vanishes_for_zero_advection():
    V, Q = _spaces(3)
    tilde = _orthogonal_noise(V, seed=13)
    mom = transport_pairing(V, advection_factor(V, np.zeros(V.n_dofs)), tilde)
    cont = continuity_pairing(Q, tilde)
    assert np.max(np.abs(mom)) < 1e-14
    assert np.max(np.abs(cont)) > 0.0


def test_cross_terms_against_dense_oracle():
    V, Q = _spaces(4)
    rng = np.random.default_rng(14)
    u = rng.standard_normal(V.n_dofs)
    tilde_vals = _orthogonal_noise(V, seed=15)
    mom = transport_pairing(V, advection_factor(V, u), tilde_vals)
    cont = continuity_pairing(Q, tilde_vals)
    mom_o, cont_o = orc.dense_subscale_pairings(V, Q, u, tilde_vals)
    assert orc.rel(mom, mom_o) < 1e-12
    assert orc.rel(cont, cont_o) < 1e-12
