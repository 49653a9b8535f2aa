"""Desk-scale acceptance gates for the flow solver and the operator lab.

Each test is one gate with its tolerance and (where stated) wall-clock
budget.  Shared runs are module fixtures and star spaces come from the
session's ``star`` cache, so the expensive level-16 builds happen once.
Gate 6 and its companion bound the composite inf-sup constant below by
one h-independent floor, the unit square's continuous inf-sup constant
(see ``BETA_UNIT_SQUARE``).
"""

import math
import time

import numpy as np
import oracles as orc
from oracles import BumpTest, local_energy_residual
import pytest
import scipy.linalg

from vmsns.config import ScenarioConfig
from vmsns.diagnostics import a_priori_bound, energy_totals, error_norms
from vmsns.fe import linf_norm, quad_norm
from vmsns.mesh import build_structured
from vmsns.scenarios import fields_for
from vmsns.solver import (build_discretization, continuity_residual,
                          initialize, run)
from vmsns.spectral_lab import (composite_norm, grad_probe, infsup_constant,
                                inverse_inequality_constant,
                                leray_star_stability)
from vmsns.subgrid import orthogonality_defect

LEVELS = (4, 8, 16)
VORTEX_DT = 0.01

# Continuous inf-sup constant of the divergence on the unit square.  Its
# right-angle corners cap it at sqrt(1/2 - 1/pi) ~= 0.4263 (Costabel,
# Crouzeix, Dauge & Lafranche 2015, "The inf-sup constant for the
# divergence on corner domains").  Fixed from the domain, not fitted.
BETA_UNIT_SQUARE = math.sqrt(0.5 - 1 / math.pi)


@pytest.fixture(scope="module")
def vortex_runs():
    """Unforced decaying-vortex runs on the three desk levels, timed."""
    out = {}
    for n in LEVELS:
        cfg = ScenarioConfig(n=n, nu=0.01, initial="decaying_vortex",
                             dt=VORTEX_DT, T=0.2)
        t0 = time.monotonic()
        out[n] = (run(cfg), time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def star_spaces(star):
    return {n: star(2, n) for n in LEVELS}


@pytest.fixture(scope="module")
def manufactured_runs():
    """Steady manufactured-solution solves (one huge implicit step makes
    the time derivative negligible, isolating the spatial error)."""
    out = []
    t0 = time.monotonic()
    for n in LEVELS:
        cfg = ScenarioConfig(n=n, nu=0.1, initial="manufactured_poly",
                             forcing="manufactured_poly", dt=1e6, T=1e6,
                             snapshot_every=10 ** 9)
        out.append((cfg, run(cfg)))
    return out, time.monotonic() - t0


# ---------------------------------------------------------------------------
# gate 1: discrete energy identity, unforced vortex, n=16, dt=0.01, 20 steps
# ---------------------------------------------------------------------------

def test_energy_identity_on_the_decaying_vortex(vortex_runs):
    result, elapsed = vortex_runs[16]
    assert elapsed <= 10.0
    assert len(result.records) == 20
    for r in result.records:
        assert abs(r.imbalance) <= 1e-10 * r.relative_scale(VORTEX_DT)
    disc = result.disc
    u0 = result.states[0].u
    total0 = (0.5 * float(u0 @ (disc.V.mass @ u0))
              + 0.5 * quad_norm(disc.V, result.states[0].tilde) ** 2)
    totals = [total0] + [r.ke_fe + r.ke_sub for r in result.records]
    for before, after in zip(totals, totals[1:]):
        assert after < before  # strictly dissipative without forcing


# ---------------------------------------------------------------------------
# gate 2: skew symmetry of the modified convection form, as the step
# assembles it
# ---------------------------------------------------------------------------

def test_convection_form_is_energy_neutral():
    disc = build_discretization(build_structured(2, 8))
    V, M, K = disc.V, disc.V.mass, disc.V.stiffness
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a = rng.standard_normal(V.n_dofs)
        v = rng.standard_normal(V.n_dofs)
        C = orc.step_convection(disc, a)
        scale = (linf_norm(V, a)
                 * math.sqrt(v @ (K @ v)) * math.sqrt(v @ (M @ v)))
        assert abs(v @ (C @ v)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# gate 3: subscale stays orthogonal to the resolved space along the run
# ---------------------------------------------------------------------------

def test_subscale_orthogonality_along_the_run(vortex_runs):
    result, _ = vortex_runs[16]
    for state in result.states:
        assert orthogonality_defect(result.disc.V, state.tilde) <= 1e-8


# ---------------------------------------------------------------------------
# gate 4: discrete continuity at every converged step
# ---------------------------------------------------------------------------

def test_continuity_constraint_at_every_step(vortex_runs):
    for n in LEVELS:
        result, _ = vortex_runs[n]
        bound = 10.0 * result.config.linear_tol
        for state in result.states:
            assert continuity_residual(state) <= bound


# ---------------------------------------------------------------------------
# gate 5: blockwise composite norm equals the explicit spectral operator
# ---------------------------------------------------------------------------

def test_composite_norm_identity_against_spectral_oracle(star_spaces):
    t0 = time.monotonic()
    s_values = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    for n in (4, 8):  # 25 probes each: 50 random composite vectors
        space = star_spaces[n]
        assert space.V1.n_dofs <= 500
        closure = orc.explicit_star_norm(space)
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = rng.standard_normal(space.n_star)
            for s in s_values:
                want = closure(v, s)
                assert abs(composite_norm(space, v, s) - want) <= 1e-9 * want
    assert time.monotonic() - t0 <= 30.0


# ---------------------------------------------------------------------------
# gate 6: pressure stability across refinement
# ---------------------------------------------------------------------------

def test_infsup_constant_is_h_uniform_with_complement(star_spaces):
    """beta(h, s) stays above one h-independent floor on every level.

    The pressure control the paper needs is beta ‖q‖ <= sup_v (v, ∇q)/‖v‖
    + h ‖P⊥∇q‖ with beta > 0 independent of h; ``infsup_constant`` at
    s = 0 measures exactly that beta.  The paper gives no value for beta
    and does not settle whether the discrete composite constant stays
    above the continuous one; the floor is the unit square's continuous
    constant ``BETA_UNIT_SQUARE``.  Measured on this structured family:

        n         4       8       16      24
        beta(0)   0.7592  0.6173  0.5343  0.5131
        beta(.5)  0.8577  0.7773  0.7191  0.7037

    beta(h, 1) = 1 on every level, and beta is nondecreasing in s on every
    level, so s = 0 is the binding column.  It decreases toward a positive
    limit: the drop per halving shrinks (0.142, then 0.083) and every level
    clears the floor.  A spread window over these levels would measure that
    pre-asymptotic decrease, not uniformity.  The floor still rejects a
    degenerating pair: without the complement the constant is 0, and
    weighting the complement by h^(2(2-s)) instead of h^(2(1-s)) gives
    0.331 at n = 16, s = 0.
    """
    for s in (0.0, 0.5, 1.0):
        betas = [infsup_constant(star_spaces[n], s) for n in LEVELS]
        assert min(betas) >= BETA_UNIT_SQUARE, \
            f"s={s}: beta {betas} below the h-independent floor " \
            f"{BETA_UNIT_SQUARE:.4f}"


def test_equal_order_pair_fails_without_the_complement(star_spaces):
    """Dropping the complement block exposes the spurious pressure modes
    of the equal-order pair: the plain pencil is rank deficient, so the
    constant is not merely shrinking by 30% per level -- it collapses to
    exactly zero on every level, while the composite constant stays above
    the floor of gate 6."""
    betas = [infsup_constant(star_spaces[n], 0.0, include_complement=False)
             for n in LEVELS]
    for beta, beta_next in zip(betas, betas[1:]):
        assert beta_next <= 0.7 * beta
    for beta, n in zip(betas, LEVELS):
        assert beta == 0.0
        assert infsup_constant(star_spaces[n], 0.0) >= BETA_UNIT_SQUARE


# ---------------------------------------------------------------------------
# gate 7: inverse inequality constant is level-robust
# ---------------------------------------------------------------------------

def test_inverse_inequality_constant_is_level_robust(star_spaces):
    for s in (0.0, 0.5):
        consts = [inverse_inequality_constant(star_spaces[n], s)
                  for n in LEVELS]
        assert max(consts) <= 1.25 * min(consts)


# ---------------------------------------------------------------------------
# gate 8: divergence-free projection is a contraction, level-robustly
# ---------------------------------------------------------------------------

def test_leray_projection_stability(star_spaces):
    max_quarter = []
    for n in LEVELS:
        space = star_spaces[n]
        rng = np.random.default_rng(42)
        probes = [grad_probe(space, rng.standard_normal(space.Q.n_dofs))]
        probes += [rng.standard_normal(space.n_star) for _ in range(10)]
        for v in probes:
            assert leray_star_stability(space, v, 0.0) <= 1.0 + 1e-10
        max_quarter.append(max(leray_star_stability(space, v, 0.25)
                               for v in probes))
    assert max(max_quarter) <= 1.25 * min(max_quarter)


# ---------------------------------------------------------------------------
# gate 9: initialization projection
# ---------------------------------------------------------------------------

def test_initialization_reproduces_divergence_free_fields():
    disc = build_discretization(build_structured(2, 8))
    basis = scipy.linalg.null_space(disc.G.toarray().T)
    assert basis.shape[1] > 0
    rng = np.random.default_rng(11)
    u0 = basis @ rng.standard_normal(basis.shape[1])
    state = initialize(disc.V.eval_at_qp(u0), disc)
    norm = math.sqrt(u0 @ (disc.V.mass @ u0))
    assert math.sqrt((state.u - u0) @ (disc.V.mass @ (state.u - u0))) \
        <= 1e-10 * norm
    assert quad_norm(disc.V, state.tilde) <= 1e-10 * norm


def test_initialization_matches_dense_saddle_oracle():
    from vmsns.fe import as_qp_field

    disc = build_discretization(build_structured(2, 4))

    def u0(x):
        return np.stack([np.sin(3.0 * x[:, 0]) * x[:, 1],
                         np.cos(2.0 * x[:, 1]) + x[:, 0] ** 2], axis=-1)

    state = initialize(u0, disc)
    u_want, _, tilde_want = orc.dense_initialize(
        disc.V, disc.Q, as_qp_field(disc.V, u0))
    assert orc.rel(state.u, u_want) <= 1e-10
    assert np.max(np.abs(state.tilde - tilde_want)) \
        <= 1e-10 * np.max(np.abs(tilde_want))


# ---------------------------------------------------------------------------
# gate 10: manufactured-solution convergence rates
# ---------------------------------------------------------------------------

def test_manufactured_solution_rates(manufactured_runs):
    runs, elapsed = manufactured_runs
    assert elapsed <= 60.0
    errs = [error_norms(result.states[-1], fields_for(cfg))
            for cfg, result in runs]
    floors = {"err_vel_l2": 1.7, "err_vel_h1": 0.9, "err_p_l2": 0.9}
    for key, floor in floors.items():
        rates = [math.log2(coarse[key] / fine[key])
                 for coarse, fine in zip(errs, errs[1:])]
        assert min(rates) >= floor, f"{key}: rates {rates} under {floor}"


# ---------------------------------------------------------------------------
# gate 11: local energy pairing trend under refinement
# ---------------------------------------------------------------------------

def test_local_energy_pairing_shrinks_under_refinement(vortex_runs):
    bump = BumpTest(center=(0.5, 0.5), radius=0.25,
                    t_center=0.1, t_width=0.09)
    values = [local_energy_residual(vortex_runs[n][0], bump) for n in LEVELS]
    for coarse, fine in zip(values, values[1:]):
        assert abs(fine) <= 1.1 * abs(coarse)
    # pinned from a validated run of this exact configuration
    want = (-0.001129386192623303, -0.001020604079195981,
            -0.0002192594994641406)
    for got, ref in zip(values, want):
        assert abs(got - ref) <= 1e-6 * abs(ref)


# ---------------------------------------------------------------------------
# gate 12: ledger totals dominated by the data bound, level-uniformly
# ---------------------------------------------------------------------------

def test_energy_totals_dominated_by_data_bound(vortex_runs,
                                               manufactured_runs):
    # unforced family: the discrete identity makes totals EQUAL the data
    # bound in exact arithmetic, so domination is asserted up to roundoff
    totals, bounds = [], []
    for n in LEVELS:
        result, _ = vortex_runs[n]
        totals.append(energy_totals(result))
        bounds.append(a_priori_bound(result))
    for total, bound in zip(totals, bounds):
        assert total <= bound * (1.0 + 1e-12)
    for coarse, fine in zip(totals, totals[1:]):
        assert fine <= 1.05 * coarse

    # forced family: domination is strict with a real margin
    runs, _ = manufactured_runs
    forced_totals = [energy_totals(result) for _, result in runs]
    forced_bounds = [a_priori_bound(result) for _, result in runs]
    for total, bound in zip(forced_totals, forced_bounds):
        assert total <= bound
    for coarse, fine in zip(forced_totals, forced_totals[1:]):
        assert fine <= 1.05 * coarse
