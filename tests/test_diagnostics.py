"""Energy ledger, continuity residual, data bounds, and the local-energy
estimator."""

import numpy as np
import pytest

from vmsns.config import ScenarioConfig
from vmsns.diagnostics import (
    EnergyRecord,
    a_priori_bound,
    energy_ledger_entry,
    energy_totals,
    error_norms,
    hminus1_surrogate,
)
from vmsns.errors import ConfigurationError
from vmsns.fe import assemble_load, quad_norm
from vmsns.mesh import build_structured
from vmsns.solver import (RunResult, StarState, build_discretization,
                          continuity_residual, initialize, run, step)
from vmsns import scenarios

import oracles as orc
from oracles import MIN_SNAPSHOTS_IN_WINDOW, BumpTest, local_energy_residual


def _disc(n=4):
    return build_discretization(build_structured(2, n))


def _zero_state(disc, t=0.0):
    return StarState(u=np.zeros(disc.n_u), p=np.zeros(disc.n_p),
                     tilde=orc.zero_subscale(disc.V), t=t, disc=disc)


# ---------------------------------------------------------------------------
# step energy identity
# ---------------------------------------------------------------------------

def test_record_relative_scale():
    rec = EnergyRecord(t=0.1, ke_fe=2.0, ke_sub=0.0, visc_diss=100.0,
                       sub_diss=0.0, power_in=-3.0, jump_terms=0.0,
                       imbalance=0.0)
    assert rec.relative_scale(0.5) == 50.0
    assert rec.relative_scale(1e-9) == 2.0
    zero = EnergyRecord(t=0.0, ke_fe=0.0, ke_sub=0.0, visc_diss=0.0,
                        sub_diss=0.0, power_in=0.0, jump_terms=0.0,
                        imbalance=0.0)
    assert zero.relative_scale(1.0) == 1e-30
    subscale = EnergyRecord(t=0.1, ke_fe=0.0, ke_sub=0.5, visc_diss=0.0,
                            sub_diss=0.0, power_in=0.0, jump_terms=0.0,
                            imbalance=0.0)
    assert subscale.relative_scale(1.0) == 0.5


def test_ledger_entry_of_rest_states_is_all_zero():
    disc = _disc(2)
    rec = energy_ledger_entry(_zero_state(disc), _zero_state(disc, 0.1),
                              None, 0.1, 0.5, 1.0)
    for name in ("ke_fe", "ke_sub", "visc_diss", "sub_diss", "power_in",
                 "jump_terms", "imbalance"):
        assert getattr(rec, name) == 0.0


def test_ledger_entry_against_independent_arithmetic():
    """Recompute every term of the step identity with the dense oracle
    matrices and plain numpy."""
    disc = _disc(3)
    rng = np.random.default_rng(0)
    prev = _zero_state(disc)
    prev.u = rng.standard_normal(disc.n_u)
    new = _zero_state(disc, 0.1)
    new.u = rng.standard_normal(disc.n_u)
    new.tilde += 0.1 * rng.standard_normal(new.tilde.shape)
    f_const = lambda x: np.stack([np.ones(len(x)), -np.ones(len(x))], axis=-1)
    dt, tau, nu = 0.1, 0.3, 0.7

    rec = energy_ledger_entry(prev, new, assemble_load(disc.V, f_const), dt,
                              tau, nu)

    M = orc.dense_vector_mass(disc.V)
    K = orc.dense_vector_stiffness(disc.V)
    ke = lambda v: 0.5 * v @ M @ v
    ks = lambda s: 0.5 * quad_norm(disc.V, s.tilde) ** 2
    du = new.u - prev.u
    jump = 0.5 * du @ M @ du + 0.5 * quad_norm(
        disc.V, new.tilde - prev.tilde) ** 2
    visc = nu * new.u @ K @ new.u
    sub = quad_norm(disc.V, new.tilde) ** 2 / tau
    power = orc.dense_load(disc.V, lambda x: np.array([1.0, -1.0])) @ new.u
    imbalance = ((ke(new.u) - ke(prev.u)) + (ks(new) - ks(prev)) + jump
                 + dt * visc + dt * sub - dt * power)

    assert abs(rec.ke_fe - ke(new.u)) < 1e-12
    assert abs(rec.visc_diss - visc) < 1e-12
    assert abs(rec.sub_diss - sub) < 1e-12
    assert abs(rec.power_in - power) < 1e-12
    assert abs(rec.jump_terms - jump) < 1e-12
    assert abs(rec.imbalance - imbalance) < 1e-12


def test_solver_step_closes_the_ledger():
    disc = _disc(4)
    state = initialize(scenarios._vortex_velocity, disc)
    cfg = ScenarioConfig(nu=0.05, dt=0.02, T=1.0)
    new = step(state, None, cfg)
    rec = energy_ledger_entry(state, new, None, cfg.dt, new.tau_used, cfg.nu)
    assert abs(rec.imbalance) <= 1e-12 * rec.relative_scale(cfg.dt)


# ---------------------------------------------------------------------------
# continuity residual
# ---------------------------------------------------------------------------

def test_divergence_residual_zero_state():
    assert continuity_residual(_zero_state(_disc(2))) == 0.0


def test_divergence_residual_after_projection():
    disc = _disc(4)
    state = initialize(scenarios._vortex_velocity, disc)
    assert continuity_residual(state) < 1e-12


def test_divergence_residual_detects_perturbation():
    disc = _disc(4)
    state = initialize(scenarios._vortex_velocity, disc)
    base = continuity_residual(state)
    state.u[0] += 1e-3
    assert continuity_residual(state) > max(10.0 * base, 1e-6)


# ---------------------------------------------------------------------------
# bump test function
# ---------------------------------------------------------------------------

def _fd_gradient(bump, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (bump.space_tables(xp)[0] - bump.space_tables(xm)[0]) / (2 * eps)
    return g


def test_bump_tables_match_finite_differences():
    bump = BumpTest(center=(0.45, 0.55), radius=(0.3, 0.25),
                    t_center=0.5, t_width=0.2, amplitude=1.7)
    rng = np.random.default_rng(4)
    for _ in range(12):
        x = np.array([0.45, 0.55]) + rng.uniform(-0.2, 0.2, size=2)
        val, grad, lap = bump.space_tables(x)
        assert val >= 0.0
        assert np.max(np.abs(grad - _fd_gradient(bump, x))) < 1e-7
        eps = 1e-4
        fd_lap = 0.0
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd_lap += (bump.space_tables(xp)[0] - 2 * val
                       + bump.space_tables(xm)[0]) / eps ** 2
        assert abs(lap - fd_lap) < 1e-5 * max(1.0, abs(lap))


def test_bump_vanishes_outside_support():
    bump = BumpTest(center=(0.5, 0.5), radius=0.2, t_center=0.5, t_width=0.1)
    val, grad, lap = bump.space_tables(np.array([0.9, 0.5]))
    assert val == 0.0 and np.all(grad == 0.0) and lap == 0.0
    assert bump.time_profile(0.75) == (0.0, 0.0)
    w, dw = bump.time_profile(0.55)
    assert w > 0.0
    fd = (bump.time_profile(0.55 + 1e-7)[0] - bump.time_profile(0.55 - 1e-7)[0]) / 2e-7
    assert abs(dw - fd) < 1e-6


def test_bump_support_validation():
    mesh = build_structured(2, 4)
    ok = BumpTest(center=(0.5, 0.5), radius=0.25, t_center=0.5, t_width=0.2)
    ok.validate_support(mesh, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        BumpTest(center=(0.9, 0.5), radius=0.25, t_center=0.5,
                 t_width=0.2).validate_support(mesh, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        BumpTest(center=(0.5, 0.5), radius=0.25, t_center=0.1,
                 t_width=0.2).validate_support(mesh, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        BumpTest(center=(0.5, 0.5), radius=-0.1, t_center=0.5,
                 t_width=0.2).validate_support(mesh, 0.0, 1.0)


# ---------------------------------------------------------------------------
# local energy pairing
# ---------------------------------------------------------------------------

def _constant_history(disc, c=(1.0, -0.5), n_snap=41, T=1.0):
    """States whose velocity equals the constant c on every node, with the
    boundary ring removed by the zero-trace constraint; inside the central
    block the field is exactly constant in space and time."""
    u = np.tile(np.asarray(c), disc.V.n_scalar)
    states = []
    for t in np.linspace(0.0, T, n_snap):
        s = _zero_state(disc, t)
        s.u = u.copy()
        states.append(s)
    return RunResult(states=states, records=[], disc=disc,
                     config=ScenarioConfig(nu=0.01))


def _bump_grid_aligned():
    # support [0.25, 0.75]^2: edges on mesh lines of the n=8 grid
    return BumpTest(center=(0.5, 0.5), radius=0.25, t_center=0.5, t_width=0.3)


def test_local_energy_zero_flow_is_zero():
    disc = _disc(8)
    hist = _constant_history(disc, c=(0.0, 0.0))
    assert local_energy_residual(hist, _bump_grid_aligned()) == 0.0


def test_local_energy_constant_flow_annihilated():
    """A flow that is constant in space and time inside the bump support
    pairs to zero: the time factor integrates dphi/dt over the full
    window (trapezoid is exact by antisymmetry on the uniform grid) and
    the space factors integrate grad/Laplacian of the bump over its
    support (exact because the support boundary is grid-aligned)."""
    disc = _disc(8)
    hist = _constant_history(disc)
    r = local_energy_residual(hist, _bump_grid_aligned())
    assert abs(r) < 1e-12


def test_local_energy_is_linear_in_the_test_function():
    nu = 0.05
    scenario = ScenarioConfig(n=4, nu=nu, initial="decaying_vortex",
                              dt=0.01, T=0.5)
    hist = run(scenario)
    b1 = BumpTest(center=(0.5, 0.5), radius=0.25, t_center=0.25, t_width=0.2)
    b2 = BumpTest(center=(0.5, 0.5), radius=0.375, t_center=0.25, t_width=0.2)
    b3 = BumpTest(center=(0.5, 0.5), radius=0.25, t_center=0.3, t_width=0.19)
    r1 = local_energy_residual(hist, b1)
    r2 = local_energy_residual(hist, b2)
    r3 = local_energy_residual(hist, b3)
    combo_same = local_energy_residual(hist, [(2.0, b1), (-0.5, b2)])
    assert abs(combo_same - (2.0 * r1 - 0.5 * r2)) < 1e-12
    combo_mixed = local_energy_residual(hist, [(1.0, b1), (3.0, b3)])
    assert abs(combo_mixed - (r1 + 3.0 * r3)) < 1e-12


def test_local_energy_needs_enough_snapshots():
    disc = _disc(4)
    hist = _constant_history(disc, n_snap=MIN_SNAPSHOTS_IN_WINDOW - 4)
    with pytest.raises(ConfigurationError):
        local_energy_residual(hist, _bump_grid_aligned())
    with pytest.raises(ConfigurationError):
        local_energy_residual(
            RunResult(states=hist.states[:1], records=[], disc=disc,
                      config=ScenarioConfig(nu=0.01)),
            _bump_grid_aligned())


# ---------------------------------------------------------------------------
# error norms and integrated bounds
# ---------------------------------------------------------------------------

def test_error_norms_of_zero_state_are_exact_field_norms():
    """Against the zero state the error norms are the norms of the exact
    fields themselves, which the independent cartesian rule integrates
    exactly for the polynomial scenario at matching order."""
    scenario = ScenarioConfig(n=2, nu=0.1, initial="manufactured_poly",
                              forcing="manufactured_poly", dt=0.1, T=1.0)
    fields = scenarios.fields_for(scenario)
    disc = _disc(2)
    errs = error_norms(_zero_state(disc), fields, order=17)

    pts, wts = orc.simplex_rule_cartesian(2, n=10)
    total_l2 = total_h1 = total_p = 0.0
    for c in range(disc.mesh.n_cells):
        x0, A, det = orc.cell_geometry(disc.mesh, c)
        phys = x0 + pts @ A.T
        w = wts * abs(det)
        uv = fields.exact_velocity(phys)
        gv = fields.exact_velocity_gradient(phys).reshape(-1, 2, 2)
        pv = fields.exact_pressure(phys).ravel()
        total_l2 += np.sum(w * np.einsum("qk,qk->q", uv, uv))
        total_h1 += np.sum(w * np.einsum("qkd,qkd->q", gv, gv))
        total_p += np.sum(w * pv ** 2)
    assert abs(errs["err_vel_l2"] - np.sqrt(total_l2)) < 1e-12
    assert abs(errs["err_vel_h1"] - np.sqrt(total_h1)) < 1e-12
    assert abs(errs["err_p_l2"] - np.sqrt(total_p)) < 1e-12


def test_error_norms_require_exact_solution():
    scenario = ScenarioConfig(n=2, nu=0.1, initial="decaying_vortex",
                              dt=0.1, T=1.0)
    fields = scenarios.fields_for(scenario)
    with pytest.raises(ConfigurationError):
        error_norms(_zero_state(_disc(2)), fields)


def test_hminus1_surrogate_closed_form():
    disc = _disc(3)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(disc.n_u)
    load = disc.V.stiffness @ z
    assert abs(hminus1_surrogate(disc.V, load)
               - np.sqrt(z @ load)) < 1e-9 * max(1.0, np.sqrt(z @ load))


def test_energy_totals_equal_data_bound_without_forcing():
    scenario = ScenarioConfig(n=4, nu=0.05, initial="decaying_vortex",
                              dt=0.02, T=0.1)
    result = run(scenario)
    totals = energy_totals(result)
    bound = a_priori_bound(result)
    # with f = 0 the exact step identities make these equal
    assert abs(totals - bound) < 1e-12 * bound


def test_data_bound_matches_dense_oracle():
    scenario = ScenarioConfig(n=4, nu=0.5, initial="manufactured_poly",
                              forcing="manufactured_poly", dt=0.02, T=0.1)
    result = run(scenario)
    V = result.disc.V
    load = assemble_load(V, scenarios.fields_for(scenario).forcing)
    dual = orc.dense_hminus1_surrogate(V, load)
    assert abs(hminus1_surrogate(V, load) - dual) <= 1e-12 * dual
    first = result.states[0]
    want = (0.5 * float(first.u @ (V.mass @ first.u))
            + 0.5 * quad_norm(V, first.tilde) ** 2)
    for _ in result.records:
        want += scenario.dt * dual ** 2 / scenario.nu
    assert abs(a_priori_bound(result) - want) <= 1e-12 * want


def test_energy_totals_below_data_bound_with_forcing():
    scenario = ScenarioConfig(n=4, nu=0.5, initial="manufactured_poly",
                              forcing="manufactured_poly", dt=0.02, T=0.1)
    result = run(scenario)
    assert energy_totals(result) <= a_priori_bound(result)
