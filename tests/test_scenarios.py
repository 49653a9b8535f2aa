"""Built-in fields: solenoidality, boundary traces, forcing consistency.

The analytic derivatives are all cross-checked with central finite
differences, so a typo in any closed-form expression shows up against
the function values themselves.
"""

import numpy as np
import pytest

from vmsns.config import ScenarioConfig
from vmsns.errors import ConfigurationError
from vmsns.scenarios import (
    FORCING_CHOICES,
    INITIAL_CHOICES,
    _poly_forcing,
    _poly_pressure,
    _poly_velocity,
    _poly_velocity_gradient,
    _vortex_velocity,
    fields_for,
)

import oracles as orc

RNG = np.random.default_rng(42)
INTERIOR = RNG.uniform(0.1, 0.9, size=(40, 2))


def _fd_divergence(f, x, eps=1e-6):
    div = np.zeros(len(x))
    for i in range(2):
        xp, xm = x.copy(), x.copy()
        xp[:, i] += eps
        xm[:, i] -= eps
        div += (f(xp)[:, i] - f(xm)[:, i]) / (2 * eps)
    return div


def _fd_gradient(f, x, eps=1e-6):
    out = np.zeros((len(x), 2, 2))
    for d in range(2):
        xp, xm = x.copy(), x.copy()
        xp[:, d] += eps
        xm[:, d] -= eps
        out[:, :, d] = (f(xp) - f(xm)) / (2 * eps)
    return out


def test_vortex_is_divergence_free():
    assert np.max(np.abs(_fd_divergence(_vortex_velocity, INTERIOR))) < 1e-8


def test_vortex_vanishes_on_the_boundary():
    t = np.linspace(0.0, 1.0, 13)
    for edge in (np.stack([t, np.zeros_like(t)], axis=-1),
                 np.stack([t, np.ones_like(t)], axis=-1),
                 np.stack([np.zeros_like(t), t], axis=-1),
                 np.stack([np.ones_like(t), t], axis=-1)):
        assert np.max(np.abs(_vortex_velocity(edge))) < 1e-14


def test_poly_velocity_is_divergence_free_and_zero_trace():
    assert np.max(np.abs(_fd_divergence(_poly_velocity, INTERIOR))) < 1e-8
    corners = np.array([[0.0, 0.3], [1.0, 0.7], [0.2, 0.0], [0.9, 1.0]])
    assert np.max(np.abs(_poly_velocity(corners))) < 1e-14


def test_poly_gradient_matches_finite_differences():
    got = _poly_velocity_gradient(INTERIOR)
    fd = _fd_gradient(_poly_velocity, INTERIOR)
    assert np.max(np.abs(got - fd)) < 1e-7


def test_poly_pressure_has_zero_mean():
    # cubic integrates exactly under the oracle rule
    from vmsns.mesh import build_structured

    mesh = build_structured(2, 2)
    pts, wts = orc.simplex_rule_cartesian(2, n=5)
    total = 0.0
    for c in range(mesh.n_cells):
        x0, A, det = orc.cell_geometry(mesh, c)
        total += np.sum(wts * abs(det) * _poly_pressure(x0 + pts @ A.T).ravel())
    assert abs(total) < 1e-14


def test_poly_forcing_is_the_momentum_residual():
    """f = (u·∇)u - nu Δu + ∇p, rebuilt here from finite differences of
    the velocity/pressure closed forms only."""
    nu = 0.37
    f = _poly_forcing(nu)(INTERIOR)
    eps = 1e-4
    u = _poly_velocity(INTERIOR)
    gu = _fd_gradient(_poly_velocity, INTERIOR, eps=1e-6)
    conv = np.einsum("nk,nik->ni", u, gu)
    lap = np.zeros_like(u)
    for d in range(2):
        xp, xm = INTERIOR.copy(), INTERIOR.copy()
        xp[:, d] += eps
        xm[:, d] -= eps
        lap += (_poly_velocity(xp) - 2 * u + _poly_velocity(xm)) / eps ** 2
    gp = np.zeros_like(u)
    for d in range(2):
        xp, xm = INTERIOR.copy(), INTERIOR.copy()
        xp[:, d] += eps
        xm[:, d] -= eps
        gp[:, d] = ((_poly_pressure(xp) - _poly_pressure(xm)) / (2 * eps)).ravel()
    want = conv - nu * lap + gp
    assert np.max(np.abs(f - want)) < 1e-5


def test_fields_for_zero_scenario():
    fields = fields_for(ScenarioConfig(n=2, nu=1.0, initial="zero"))
    x = INTERIOR[:5]
    assert np.max(np.abs(fields.initial(x))) == 0.0
    assert fields.forcing is None
    assert fields.exact_velocity is None


def test_fields_for_manufactured_scenario_attaches_exact_fields():
    cfg = ScenarioConfig(n=2, nu=0.25, initial="manufactured_poly",
                         forcing="manufactured_poly", dt=0.1, T=1.0)
    fields = fields_for(cfg)
    assert fields.exact_velocity is _poly_velocity
    assert fields.exact_pressure is _poly_pressure
    # the steady forcing is consistent with nu
    assert orc.rel(fields.forcing(INTERIOR), _poly_forcing(0.25)(INTERIOR)) < 1e-15


def test_fields_for_rejects_3d_vortex():
    with pytest.raises(ConfigurationError):
        fields_for(ScenarioConfig(dim=3, nu=1.0, initial="decaying_vortex",
                                  forcing="none"))


def test_choice_tuples_are_stable():
    assert INITIAL_CHOICES == ("zero", "decaying_vortex", "manufactured_poly")
    assert FORCING_CHOICES == ("none", "manufactured_poly")
