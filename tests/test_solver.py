"""Time stepper: projection initialization, Picard stepping, energy law."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from vmsns import solver, subgrid
from vmsns.config import ScenarioConfig
from vmsns.diagnostics import energy_ledger_entry
from vmsns.errors import ConfigurationError, SolverNonconvergence
from vmsns.fe import advection_factor, assemble_load, l2_project, quad_norm
from vmsns.mesh import build_structured
from vmsns.solver import (
    build_discretization,
    initialize,
    run,
    step,
)
from vmsns.subgrid import continuity_pairing, orthogonality_defect
from vmsns import scenarios

import oracles as orc


def _disc(n=4):
    return build_discretization(build_structured(2, n))


def _vortex_3d(x):
    return np.stack([np.sin(np.pi * x[:, 1]) * x[:, 2] * (1.0 - x[:, 2]),
                     np.cos(2.0 * x[:, 0] + x[:, 2]),
                     x[:, 0] * x[:, 1]], axis=-1)


@pytest.mark.parametrize("dim", (2, 3))
def test_a_mesh_without_interior_velocity_dofs_is_a_configuration_error(dim):
    # n = 1 passes the config rules, but every vertex is on the boundary
    with pytest.raises(ConfigurationError, match="no interior dof"):
        build_discretization(build_structured(dim, 1))


def test_initialize_zero_field():
    disc = _disc(3)
    state = initialize(lambda x: np.zeros_like(x), disc)
    assert np.max(np.abs(state.u)) == 0.0
    assert np.max(np.abs(state.p)) == 0.0
    assert quad_norm(disc.V, state.tilde) == 0.0
    assert state.t == 0.0


def test_initialize_vortex_regression():
    """Projection of the decaying vortex on the 4x4 mesh: kinetic energy
    and subscale magnitude pinned from a validated run (the dense-oracle
    agreement for this projection is part of the acceptance suite)."""
    disc = _disc(4)
    state = initialize(scenarios._vortex_velocity, disc)
    ke = 0.5 * float(state.u @ (disc.V.mass @ state.u))
    assert abs(ke - 0.18026092874608626) < 1e-12
    assert abs(quad_norm(disc.V, state.tilde) - 0.12032294045413607) < 1e-12
    assert state.continuity_residual < 1e-12
    assert orthogonality_defect(disc.V, state.tilde) < 1e-10


def test_initialize_matches_dense_saddle_oracle():
    from vmsns.fe import as_qp_field

    disc = _disc(4)
    u0 = lambda x: np.stack(
        [np.sin(2.0 * x[:, 0]) * x[:, 1], np.cos(x[:, 0] + 3.0 * x[:, 1])],
        axis=-1)
    state = initialize(u0, disc)
    u_o, _, tilde_o = orc.dense_initialize(disc.V, disc.Q,
                                           as_qp_field(disc.V, u0))
    assert orc.rel(state.u, u_o) < 1e-10
    assert orc.rel(state.tilde, tilde_o) < 1e-10


def test_continuity_pairing_consistent_with_assembled_coupling():
    disc = _disc(3)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(disc.n_u)
    gp = continuity_pairing(disc.Q, disc.V.eval_at_qp(u))
    assert orc.rel(gp, disc.GT @ u) < 1e-12
    # ... and sums to (f, grad 1) = 0 over all pressure dofs
    assert abs(gp.sum()) < 1e-13


def _explicit_augmented(disc, dt, nu, beta, a):
    """The four block rows of the augmented matrix, by ``sp.bmat``."""
    C, NN, NG = (sp.csr_matrix(b) for b in orc.dense_advection_operators(disc, a))
    M, K = disc.V.mass, disc.V.stiffness
    G, KQ = disc.G, disc.Q.stiffness
    m_p = sp.csr_matrix(disc.Q.mean_vector[:, None])
    return sp.bmat([
        [M / dt + C + nu * K + beta * NN, G + beta * NG, -beta * C.T, None],
        [G.T - beta * NG.T, -beta * KQ, beta * G.T, m_p],
        [C, G, -M, None],
        [None, m_p.T, None, None],
    ]).toarray()


def _unpermuted(disc, A):
    where = np.empty_like(disc.pattern.perm)
    where[disc.pattern.perm] = np.arange(where.size)
    return A.toarray()[np.ix_(where, where)]


def test_augmented_pattern_fill_matches_explicit_blocks():
    disc = _disc(4)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(disc.n_u)
    beta = float(rng.uniform(0.01, 0.5))
    A = solver._system_matrix(disc, 0.05, 0.01, beta,
                              advection_factor(disc.V, a))
    assert orc.rel(_unpermuted(disc, A),
                   _explicit_augmented(disc, 0.05, 0.01, beta, a)) <= 1e-14


@pytest.mark.parametrize("dim,n", [(2, 3), (2, 8), (3, 3)])
def test_pattern_equals_the_concatenated_build(dim, n):
    """Every array of the pattern, its dtype included, equals the one the
    concatenate-and-argsort build gives."""
    disc = build_discretization(build_structured(dim, n))
    pat, F = disc.pattern, disc.pattern.assembly
    (n_, nnz, indptr, indices, perm, where, data, f_indices, f_indptr,
     blocks) = orc.concatenated_pattern(disc.V, disc.Q, disc.G)
    assert (pat.n, pat.nnz, pat.blocks) == (n_, nnz, blocks)
    assert F.shape == (nnz, blocks[-1].stop)
    for got, want in [(pat.indptr, indptr), (pat.indices, indices),
                      (pat.perm, perm), (pat.where, where), (F.data, data),
                      (F.indices, f_indices), (F.indptr, f_indptr)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dim,n", [(2, 24), (3, 6)])
def test_pattern_build_peaks_near_what_it_keeps(dim, n):
    """The build's tracemalloc peak is at most 2.5 times the bytes the
    returned pattern keeps (measured 1.98 at 2-D n = 24 and 2.24 at 3-D
    n = 6; 4.2 and 4.4 when the terms' arrays were concatenated and
    sorted with int64 positions)."""
    disc = build_discretization(build_structured(dim, n))
    tracemalloc.start()
    try:
        pattern = solver._build_pattern(disc.V, disc.Q, disc.G)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pattern.nnz == disc.pattern.nnz
    assert peak <= 2.5 * kept, peak / kept


@pytest.mark.parametrize("dim,n", [(2, 3), (2, 8), (3, 3)])
def test_system_matrix_matches_the_bincount_fill(dim, n):
    """The assembly operator's fill equals the concatenated-weight
    ``bincount`` fill entry by entry, for random settings and advection
    with convection on and off, and for the initialization's (1, 0, 1, 0).
    The operator has one ±1 entry per term on no eliminated dof, and
    int32 indices."""
    disc = build_discretization(build_structured(dim, n))
    F = disc.pattern.assembly
    assert F.nnz == orc.augmented_term_count(disc)
    assert F.shape[0] == disc.pattern.nnz
    assert F.indices.dtype == F.indptr.dtype == np.int32
    assert np.array_equal(np.unique(F.data), [-1.0, 1.0])
    rng = np.random.default_rng(11)
    drawn = rng.uniform(0.005, 0.1), rng.uniform(1e-3, 0.1), rng.uniform(0.001, 0.05)
    zero = np.zeros(disc.n_u)
    cases = [(*drawn, rng.standard_normal(disc.n_u)), (*drawn, zero), (1.0, 0.0, 1.0, zero)]
    for dt, nu, beta, a in cases:
        n_fac = advection_factor(disc.V, a)
        got = solver._system_matrix(disc, dt, nu, beta, n_fac)
        want = orc.bincount_system_matrix(disc, dt, nu, beta, n_fac)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.all(np.abs(got.data - want.data) <= 1e-14 * np.abs(want.data))


def test_initialization_matrix_is_the_augmented_assembly(monkeypatch):
    disc = _disc(4)
    seen = []
    solve = solver._solve

    def capture(A, *args):
        seen.append(A)
        return solve(A, *args)

    monkeypatch.setattr(solver, "_solve", capture)
    initialize(scenarios._vortex_velocity, disc)
    assert len(seen) == 1
    want = _explicit_augmented(disc, 1.0, 0.0, 1.0, np.zeros(disc.n_u))
    assert orc.rel(_unpermuted(disc, seen[0]), want) <= 1e-14


@pytest.mark.parametrize("dim,n,u0", [(2, 16, scenarios._vortex_velocity),
                                       (3, 4, _vortex_3d)], ids=["2d", "3d"])
def test_initialization_and_step_factors_pivot_no_row(monkeypatch, dim, n, u0):
    """In the pattern's order no pivot is zero, so SuperLU keeps every
    diagonal pivot: the row permutation of the initialization's factor
    (dt = 1, where the mass diagonal is small against the gradient
    coupling) and of the first step's is the identity."""
    disc = build_discretization(build_structured(dim, n))
    factors = []
    splu = solver.spla.splu

    def capture(A, **kwargs):
        lu = splu(A, **kwargs)
        if A.shape[0] == disc.pattern.n:         # not the mass factor
            factors.append(lu)
        return lu

    monkeypatch.setattr(solver.spla, "splu", capture)
    state = initialize(u0, disc)
    step(state, None, ScenarioConfig(dim=dim, n=n, nu=0.01, dt=0.01, T=1.0))
    assert len(factors) == 2
    for lu in factors:
        assert np.array_equal(lu.perm_r, np.arange(disc.pattern.n))


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(n=2, nu=0.125, dt=0.005691965820415944,
                   T=5 * 0.005691965820415944, convection=False),
    ScenarioConfig(n=2, box=((0.0, 1.25), (0.0, 0.75)), nu=1.0, dt=0.03125,
                   T=3 * 0.03125, convection=False),
], ids=["vortex", "box"])
def test_runs_that_a_zero_pivot_breaks_close_their_energy_identity(cfg):
    """Two runs on the smallest mesh that failed the initialization's
    residual gate with λ last in solve order and no pivoting.  The last
    pressure dof's pivot is then zero up to roundoff, so whether a run
    fails depends on that roundoff; these two failed after a symmetric
    diagonal scaling."""
    result = run(cfg)
    assert len(result.records) == cfg.n_steps
    assert max(abs(r.imbalance) for r in result.records) <= 1e-10


def _unknowns_of_vertex(disc, v):
    """The unknowns of vertex v, in the order the pattern keeps them:
    velocity components, pressure, ζ components (no velocity or ζ on the
    boundary)."""
    d, dof = disc.V.components, int(disc.V.node_dof[v])
    u = [dof * d + k for k in range(d)] if dof >= 0 else []
    p = disc.n_u + int(disc.Q.node_dof[v])
    return u + [p] + [disc.n_u + disc.n_p + i for i in u]


def _check_dissection(grid, rank, lo, hi):
    """Each cut of the box lo..hi of grid indices, at the middle plane of
    its longest axis, ranks the plane after both halves."""
    size = hi - lo + 1
    inside = np.all((grid >= lo) & (grid <= hi), axis=1)
    if inside.sum() <= solver.DISSECTION_LEAF:
        return
    axis = int(np.argmax(size))
    mid = lo[axis] + size[axis] // 2
    plane = inside & (grid[:, axis] == mid)
    assert rank[plane].min() > rank[inside & ~plane].max()
    for a, b in ((lo[axis], mid - 1), (mid + 1, hi[axis])):
        half_lo, half_hi = lo.copy(), hi.copy()
        half_lo[axis], half_hi[axis] = a, b
        _check_dissection(grid, rank, half_lo, half_hi)


@pytest.mark.parametrize("dim,n", [(2, 5), (2, 8), (3, 3), (3, 4)])
def test_pattern_orders_vertices_by_nested_dissection(dim, n):
    disc = build_discretization(build_structured(dim, n))
    perm, lam = disc.pattern.perm, disc.pattern.n - 1
    assert np.array_equal(np.sort(perm), np.arange(lam + 1))
    assert np.array_equal(disc.pattern.where[perm], np.arange(lam + 1))
    # the mean multiplier just before the last pressure dof
    at = disc.pattern.where[lam]
    pressure = (perm >= disc.n_u) & (perm < disc.n_u + disc.n_p)
    assert np.flatnonzero(pressure)[-1] == at + 1
    owner = np.empty(lam, dtype=np.int64)
    for v in range(disc.mesh.n_vertices):
        owner[_unknowns_of_vertex(disc, v)] = v
    # each vertex's unknowns form one run, in their own order
    rest = np.delete(perm, at)
    seq = owner[rest]
    vertices = seq[np.flatnonzero(np.diff(seq, prepend=-1))]
    assert np.array_equal(np.sort(vertices), np.arange(disc.mesh.n_vertices))
    want = np.concatenate([_unknowns_of_vertex(disc, v) for v in vertices])
    assert np.array_equal(rest, want)
    rank = np.empty_like(vertices)
    rank[vertices] = np.arange(vertices.size)
    grid = disc.mesh.grid
    _check_dissection(grid, rank, grid.min(axis=0), grid.max(axis=0))


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 8)])
def test_nested_dissection_fills_no_more_than_rcm(monkeypatch, dim, n):
    """The step factor in the pattern's order has no more nonzeros than
    in the reverse Cuthill-McKee order, with the same SuperLU settings.
    (At 2-D n <= 16 RCM fills less, so the sizes are larger.)"""
    disc = build_discretization(build_structured(dim, n))
    a = 0.1 * np.random.default_rng(5).standard_normal(disc.n_u)
    A = solver._system_matrix(disc, 0.01, 0.01, 0.005,
                              advection_factor(disc.V, a))
    factors = []
    splu = solver.spla.splu

    def capture(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(solver.spla, "splu", capture)
    solver._factor(A, "nested dissection")
    nd = factors[0]
    where = disc.pattern.where
    unknown = A[where][:, where]
    rcm = orc.rcm_order(unknown)
    band = splu(unknown[rcm][:, rcm].tocsc(), **solver.SUPERLU_OPTIONS)
    assert nd.L.nnz + nd.U.nnz <= band.L.nnz + band.U.nnz


@pytest.mark.parametrize("dim,n,degree,initial,forced,convection", [
    (2, 4, 1, "decaying_vortex", False, True),
    (2, 4, 1, "decaying_vortex", False, False),
    (2, 8, 1, "decaying_vortex", False, True),
    (2, 8, 1, "decaying_vortex", False, False),
    (2, 4, 1, "manufactured_poly", True, True),
    (2, 8, 1, "manufactured_poly", True, True),
    (3, 3, 1, None, False, True),
])
def test_step_matches_dense_schur_oracle(dim, n, degree, initial, forced,
                                         convection):
    # ``degree`` is the equal order of the pair, 1 for every case: the
    # stepper is P1/P1
    disc = build_discretization(build_structured(dim, n))
    assert disc.V.degree == disc.Q.degree == degree
    load = None
    if initial is None:
        u0 = _vortex_3d
    else:
        fields = scenarios.fields_for(ScenarioConfig(
            n=n, nu=0.01, initial=initial,
            forcing="manufactured_poly" if forced else "none"))
        u0 = fields.initial
        if forced:
            load = assemble_load(disc.V, fields.forcing)
    cfg = ScenarioConfig(dim=dim, n=n, nu=0.01, dt=0.02, T=1.0,
                         convection=convection)
    state = want = initialize(u0, disc)
    for _ in range(3):
        state = step(state, load, cfg)
        want = orc.dense_schur_step(want, load, cfg)
        assert state.picard_iters == want.picard_iters
        assert orc.rel(state.u, want.u) <= 1e-10
        assert orc.rel(state.p, want.p) <= 1e-10
        assert orc.rel(state.tilde, want.tilde) <= 1e-10


def _n8_flow(initial):
    """The initial state, load and settings of a 2-D n = 8 flow."""
    disc = build_discretization(build_structured(2, 8))
    forcing = "manufactured_poly" if initial == "manufactured_poly" else "none"
    cfg = ScenarioConfig(n=8, nu=0.01, dt=0.02, T=1.0, initial=initial,
                         forcing=forcing)
    fields = scenarios.fields_for(cfg)
    load = None if fields.forcing is None else assemble_load(disc.V, fields.forcing)
    return initialize(fields.initial, disc), load, cfg


def _capture_solutions(monkeypatch):
    """Record the natural-order solution of every augmented solve."""
    seen = []
    solve = solver._solve

    def capture(A, *args):
        out = solve(A, *args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(solver, "_solve", capture)
    return seen


@pytest.mark.parametrize("initial", ["decaying_vortex", "manufactured_poly"])
def test_step_zeta_is_the_projection_of_the_residual_it_updates_with(
        monkeypatch, initial):
    """The ζ block of a step's final solve is the L² projection of the
    resolved residual that drives the subscale update."""
    state, load, cfg = _n8_flow(initial)
    disc = state.disc
    V, Q, n_u, n_p = disc.V, disc.Q, disc.n_u, disc.n_p
    solutions = _capture_solutions(monkeypatch)
    factors = []
    residual_field = solver.residual_field

    def capture(*args):
        factors.append(args[-1])
        return residual_field(*args)

    monkeypatch.setattr(solver, "residual_field", capture)
    for _ in range(3):
        state = step(state, load, cfg)
        zeta = solutions[-1][disc.pattern.where][n_u + n_p:2 * n_u + n_p]
        res = residual_field(V, Q, state.u, state.p, factors[-1])
        assert orc.rel(zeta, l2_project(res, V)) <= 1e-12


@pytest.mark.parametrize("initial", ["decaying_vortex", "manufactured_poly"])
def test_initialization_zeta_is_the_projection_of_the_pressure_gradient(
        monkeypatch, initial):
    """ζ = π∇ξ to roundoff of the solution.  Both data are nearly
    solenoidal, so ζ is about 1e-4 of the solution, and the deviation is
    measured against the solution's largest entry."""
    disc = build_discretization(build_structured(2, 8))
    V, Q, n_u, n_p = disc.V, disc.Q, disc.n_u, disc.n_p
    solutions = _capture_solutions(monkeypatch)
    initialize(scenarios.fields_for(ScenarioConfig(initial=initial)).initial, disc)
    x = solutions[-1][disc.pattern.where]
    grad_xi = Q.eval_grad_at_qp(x[n_u:n_u + n_p])[:, :, 0, :]
    deviation = x[n_u + n_p:2 * n_u + n_p] - l2_project(grad_xi, V)
    assert np.abs(deviation).max() <= 1e-14 * np.abs(x).max()


def test_one_continuity_pairing_per_step(monkeypatch):
    """A state's (ũ, ∇ψ) is computed once, by the continuity check of the
    step that makes it, and the next step reads it for its right-hand
    side; a state built by hand computes it when it steps."""
    calls = []
    pairing = solver.continuity_pairing

    def counting(*args):
        calls.append(args)
        return pairing(*args)

    monkeypatch.setattr(solver, "continuity_pairing", counting)
    state, load, cfg = _n8_flow("manufactured_poly")
    calls.clear()
    for k in range(1, 4):
        state = step(state, load, cfg)
        assert len(calls) == k
    by_hand = solver.StarState(u=state.u, p=state.p, tilde=state.tilde,
                               t=state.t, disc=state.disc)
    new = step(by_hand, load, cfg)
    assert len(calls) == 5
    assert np.array_equal(new.tilde_pairing, pairing(new.disc.Q, new.tilde))


def test_l2_projections_per_step_and_initialization(monkeypatch):
    """initialize projects u0 and its subscale once each and checks the
    orthogonality defect; a step re-projects its update and checks the
    defect.  Neither projects a residual or a gradient."""
    calls = []
    project = subgrid.l2_project

    def counting(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(subgrid, "l2_project", counting)
    state, load, cfg = _n8_flow("manufactured_poly")
    assert len(calls) == 3
    for k in range(1, 4):
        state = step(state, load, cfg)
        assert len(calls) == 3 + 2 * k


def _vortex_n8():
    disc = build_discretization(build_structured(2, 8))
    state = initialize(scenarios._vortex_velocity, disc)
    return state, ScenarioConfig(nu=0.01, dt=0.02, T=1.0)


def test_step_factors_once_and_solves_later_iterates_by_sweeps(monkeypatch):
    state, cfg = _vortex_n8()
    splu = solver.spla.splu
    calls = []

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", counting_splu)
    new = step(state, None, cfg)
    assert new.picard_iters > 1
    assert new.factorizations == len(calls) == 1
    assert new.sweeps > 0
    copied = new.copy()
    assert (copied.factorizations, copied.sweeps) == (1, new.sweeps)


@pytest.mark.parametrize("garbage", [np.nan, 1.0])
def test_failed_carried_solve_refactors_its_iterate(monkeypatch, garbage):
    """A carried factor whose solve returns garbage fails every solve it
    serves: a non-finite sweep stops the sweeps at once, and finite ones
    spend the sweep budget.  Each iterate then refactors, and the step
    still agrees with the dense oracle."""
    state, cfg = _vortex_n8()
    solve = solver._solve

    def garbage_factor(*args):
        y, _, sweeps, factored = solve(*args)
        return y, (lambda r: np.full_like(r, garbage), y), sweeps, factored

    monkeypatch.setattr(solver, "_solve", garbage_factor)
    sweeps = 1 if np.isnan(garbage) else solver.SWEEP_BUDGET
    want = state
    for carried in (False, True):
        state = step(state, None, cfg)
        want = orc.dense_schur_step(want, None, cfg)
        assert state.picard_iters == want.picard_iters > 1
        assert state.factorizations == state.picard_iters
        # one failed solve per iterate that has a factor to start from
        assert state.sweeps == sweeps * (state.picard_iters - 1 + carried)
        assert orc.rel(state.u, want.u) <= 1e-10
        assert orc.rel(state.p, want.p) <= 1e-10
        assert orc.rel(state.tilde, want.tilde) <= 1e-10


def test_carried_solve_gates_what_the_sweeps_accept(monkeypatch):
    """With the sweeps' tolerance lifted to 1e-3 |b|₂ no sweep runs from
    the solution or from a start 1e-4 off it, and the residual gate alone
    decides: it keeps the solution and sends the start 1e-4 off it to a
    fresh factor."""
    disc = _disc(4)
    rng = np.random.default_rng(5)
    A = solver._system_matrix(disc, 0.05, 0.01, 0.1,
                              advection_factor(disc.V, rng.standard_normal(disc.n_u)))
    b = rng.standard_normal(A.shape[0])
    y, carried, sweeps, factored = solver._solve(A, b, None, 1e-10, "test solve")
    assert factored and sweeps == 0 and carried[1] is y
    monkeypatch.setattr(solver, "SWEEP_RTOL", 1e-3)
    kept, _, sweeps, factored = solver._solve(A, b, carried, 1e-10, "test solve")
    assert (sweeps, factored) == (0, False) and np.array_equal(kept, y)
    off = (carried[0], (1 + 1e-4) * y)
    assert solver._solve(A, b, off, 1e-10, "test solve")[2:] == (0, True)


def test_loose_solve_stops_at_loose_rtol_and_finishes_on_the_same_factor():
    """A carried solve that contracts the residual 0.13 times per sweep:
    with ``last`` false it stops at ``LOOSE_RTOL``, sooner than a tight
    solve; with ``last`` true, or when the gate fails the loose solution,
    its sweeps go on to ``SWEEP_RTOL`` from the residual in hand and end
    where the tight solve ends, bit for bit.  A loose solve that runs out
    of the sweep budget refactors."""
    disc = _disc(4)
    rng = np.random.default_rng(7)
    A = solver._system_matrix(disc, 0.05, 0.01, 0.1,
                              advection_factor(disc.V, rng.standard_normal(disc.n_u)))
    b = rng.standard_normal(A.shape[0])
    exact = solver._factor(A, "test solve")
    start = np.zeros_like(b)

    def solve(damping, last, linear_tol=1e-10):
        carried = (lambda r: damping * exact(r), start)
        return solver._solve(A, b, carried, linear_tol, "test solve", last)

    def rel_residual(y):
        return np.linalg.norm(b - A @ y) / np.linalg.norm(b)

    tight, _, tight_sweeps, factored = solve(0.87, None)
    assert not factored and rel_residual(tight) <= solver.SWEEP_RTOL
    loose, _, loose_sweeps, factored = solve(0.87, lambda y: False)
    assert not factored and loose_sweeps < tight_sweeps
    assert solver.SWEEP_RTOL < rel_residual(loose) <= solver.LOOSE_RTOL
    for last, linear_tol in ((lambda y: True, 1e-10), (lambda y: False, 1e-13)):
        y, _, sweeps, factored = solve(0.87, last, linear_tol)
        assert not factored and sweeps == tight_sweeps
        assert np.array_equal(y, tight)
    y, carried, sweeps, factored = solve(0.01, lambda y: False)
    assert factored and sweeps == solver.SWEEP_BUDGET
    assert carried[0] is not exact and rel_residual(y) <= 1e-12


@pytest.mark.parametrize("initial,n,steps", [("decaying_vortex", 8, 4),
                                             ("decaying_vortex", 24, 4),
                                             ("manufactured_poly", 8, 150)])
def test_loose_iterates_reach_the_run_with_every_solve_tight(
        monkeypatch, initial, n, steps):
    """The run whose iterates that may not be the last are solved to
    ``LOOSE_RTOL`` against the same run with ``LOOSE_RTOL`` set to
    ``SWEEP_RTOL``: the same Picard iterations at every step, u, p and ũ
    within 1e-10, and fewer sweeps on the vortex.  In both runs every
    step's final solve meets ``SWEEP_RTOL`` and its energy identity holds
    to 1e-10.  The largest deviations, 8.1e-11/7.8e-11/6.7e-12, are in
    ũ, which reads the last advection iterate: a loose solution."""
    forcing = "manufactured_poly" if initial == "manufactured_poly" else "none"
    cfg = ScenarioConfig(n=n, nu=0.01, dt=0.01, T=1.0, initial=initial,
                         forcing=forcing)
    disc = build_discretization(build_structured(2, n))
    fields = scenarios.fields_for(cfg)
    load = None if fields.forcing is None else assemble_load(disc.V, fields.forcing)
    solves = []
    solve = solver._solve

    def capture(A, b, *args):
        out = solve(A, b, *args)
        solves.append((A, b, out[0]))
        return out

    monkeypatch.setattr(solver, "_solve", capture)
    runs = []
    for rtol in (solver.LOOSE_RTOL, solver.SWEEP_RTOL):
        monkeypatch.setattr(solver, "LOOSE_RTOL", rtol)
        state = initialize(fields.initial, disc)
        taken = []
        for _ in range(steps):
            prev, state = state, step(state, load, cfg)
            A, b, y = solves[-1]
            assert np.linalg.norm(b - A @ y) <= solver.SWEEP_RTOL * np.linalg.norm(b)
            rec = energy_ledger_entry(prev, state, load, cfg.dt, state.tau_used, cfg.nu)
            assert abs(rec.imbalance) <= 1e-10 * rec.relative_scale(cfg.dt)
            taken.append(state.copy())
        runs.append(taken)
    loose, tight = runs
    for got, want in zip(loose, tight):
        assert got.picard_iters == want.picard_iters
        assert orc.rel(got.u, want.u) <= 1e-10
        assert orc.rel(got.p, want.p) <= 1e-10
        assert orc.rel(got.tilde, want.tilde) <= 1e-10
    sweeps = [sum(s.sweeps for s in run) for run in runs]
    assert sweeps[0] < sweeps[1] if initial == "decaying_vortex" else sweeps[0] <= sweeps[1]


def test_carried_factor_serves_the_next_step_and_is_replaced_when_stale():
    """The factor a step carries preconditions the next step's first
    solve; at a 50 times larger dt the sweeps stall, so that step
    refactors (twice), and both agree with the dense oracle."""
    state, cfg = _vortex_n8()
    state = step(state, None, cfg)
    assert state.factor is not None and state.copy().factor is None
    big = replace(cfg, dt=50 * cfg.dt)
    for c, factors in ((cfg, 0), (big, 2)):
        new = step(state, None, c)
        want = orc.dense_schur_step(state, None, c)
        assert new.factorizations == factors
        assert new.sweeps > 0
        assert new.picard_iters == want.picard_iters
        assert orc.rel(new.u, want.u) <= 1e-10
        assert orc.rel(new.p, want.p) <= 1e-10
        assert orc.rel(new.tilde, want.tilde) <= 1e-10


def test_factor_stale_at_twice_the_dt_is_replaced_within_the_sweep_budget(
        monkeypatch):
    """A factor carried from dt = 0.02 into a step at dt = 0.04 still
    converges, but slowly.  No solve spends more than the sweep budget:
    the slow one refactors its iterate instead, and the step agrees with
    the dense oracle."""
    state, cfg = _vortex_n8()
    state = step(state, None, cfg)
    spent = []
    correct = solver._correct

    def record(*args):
        out = correct(*args)
        spent.append(out[2])
        return out

    monkeypatch.setattr(solver, "_correct", record)
    c = replace(cfg, dt=2 * cfg.dt)
    new = step(state, None, c)
    want = orc.dense_schur_step(state, None, c)
    assert max(spent) <= solver.SWEEP_BUDGET
    assert new.factorizations == 1
    assert new.picard_iters == want.picard_iters
    assert orc.rel(new.u, want.u) <= 1e-10
    assert orc.rel(new.p, want.p) <= 1e-10
    assert orc.rel(new.tilde, want.tilde) <= 1e-10


def test_run_totals_solver_counts_over_every_step():
    result = run(_tiny_scenario(T=0.08, snapshot_every=4))
    assert len(result.records) == 4 and len(result.states) == 2
    assert result.factorizations == 1
    assert result.picard_iters > result.factorizations
    assert result.sweeps > 0
    assert result.states[-1].factorizations == 0


def test_step_rest_state_stays_at_rest():
    disc = _disc(3)
    state = initialize(lambda x: np.zeros_like(x), disc)
    cfg = ScenarioConfig(nu=0.1, dt=0.05, T=1.0)
    new = step(state, None, cfg)
    assert np.max(np.abs(new.u)) < 1e-13
    assert quad_norm(disc.V, new.tilde) < 1e-13
    assert new.t == pytest.approx(0.05)


def test_step_energy_monotone_without_forcing():
    disc = _disc(4)
    state = initialize(scenarios._vortex_velocity, disc)
    cfg = ScenarioConfig(nu=0.05, dt=0.02, T=1.0)

    def total_energy(s):
        return 0.5 * float(s.u @ (disc.V.mass @ s.u)) + 0.5 * quad_norm(disc.V, s.tilde) ** 2

    energies = [total_energy(state)]
    for _ in range(5):
        state = step(state, None, cfg)
        energies.append(total_energy(state))
    diffs = np.diff(energies)
    assert np.all(diffs < 0.0)


def test_stokes_step_solves_in_one_iteration():
    disc = _disc(3)
    state = initialize(scenarios._vortex_velocity, disc)
    cfg = ScenarioConfig(nu=1.0, dt=0.1, T=1.0, convection=False)
    new = step(state, None, cfg)
    assert new.picard_iters == 1


def test_step_nonconvergence_reports_position():
    disc = _disc(3)
    state = initialize(scenarios._vortex_velocity, disc)
    cfg = ScenarioConfig(nu=0.01, dt=0.1, T=1.0, picard_tol=1e-15,
                         picard_max=1)
    with pytest.raises(SolverNonconvergence) as info:
        step(state, None, cfg)
    assert info.value.iterations == 1
    assert np.isfinite(info.value.last_increment)
    assert info.value.t == pytest.approx(0.1)
    assert "in the step to t = 0.1:" in str(info.value)


def test_step_nonconvergence_names_the_step_by_its_time_when_dt_changes():
    """Three steps at dt = 0.01, then a failing one at dt = 0.1: the error
    names the step to t = 0.13, which no step count derived from t / dt
    gets right."""
    disc = _disc(3)
    state = initialize(scenarios._vortex_velocity, disc)
    cfg = ScenarioConfig(nu=0.01, dt=0.01, T=1.0)
    for _ in range(3):
        state = step(state, None, cfg)
    with pytest.raises(SolverNonconvergence) as info:
        step(state, None, replace(cfg, dt=0.1, picard_tol=1e-15, picard_max=1))
    assert info.value.t == pytest.approx(0.13)
    assert "in the step to t = 0.13:" in str(info.value)


def _tiny_scenario(**overrides):
    base = dict(n=3, nu=0.1, initial="decaying_vortex", dt=0.02, T=0.06)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_run_step_count_and_snapshots():
    result = run(_tiny_scenario())
    assert len(result.records) == 3
    assert len(result.states) == 4  # initial + every step (snapshot_every=1)
    assert result.states[-1].t == pytest.approx(0.06)


def test_run_evaluates_the_forcing_once(monkeypatch):
    """The steady forcing enters every step through one load vector."""
    calls = []
    poly_forcing = scenarios._poly_forcing

    def counted_forcing(nu):
        field = poly_forcing(nu)

        def counted(x):
            calls.append(len(x))
            return field(x)

        return counted

    monkeypatch.setattr(scenarios, "_poly_forcing", counted_forcing)
    result = run(_tiny_scenario(initial="manufactured_poly",
                                forcing="manufactured_poly"))
    assert len(result.records) == 3
    assert len(calls) == 1


def test_run_zero_horizon_is_projection_only():
    result = run(_tiny_scenario(T=0.0))
    assert result.records == []
    assert len(result.states) == 1


def test_run_snapshot_thinning():
    result = run(_tiny_scenario(T=0.08, snapshot_every=2))
    # initial, steps 2 and 4
    assert len(result.states) == 3
    assert result.states[1].t == pytest.approx(0.04)


def test_run_is_deterministic():
    a = run(_tiny_scenario())
    b = run(_tiny_scenario())
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.p, sb.p)
        assert np.array_equal(sa.tilde, sb.tilde)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb


def test_run_is_initialize_then_steps_with_the_settings_of_its_config():
    """``run(cfg)`` is the initialization followed by a loop of
    ``step(state, load, cfg)``, record for record.  The config switches
    convection off and floors τ above the largest value the mesh allows,
    so every step shows that it reads both settings from the config."""
    cfg = _tiny_scenario(convection=False, tau_floor=1.0)
    disc = build_discretization(build_structured(2, cfg.n))
    assert disc.mesh.h_max ** 2 / (cfg.C_s * cfg.nu) < cfg.tau_floor
    result = run(cfg)
    state = initialize(scenarios.fields_for(cfg).initial, disc)
    states, records = [state], []
    for _ in range(3):
        prev, state = state, step(state, None, cfg)
        assert state.picard_iters == 1 and state.tau_used == cfg.tau_floor
        states.append(state)
        records.append(energy_ledger_entry(prev, state, None, cfg.dt,
                                           state.tau_used, cfg.nu))
    assert records == result.records
    assert len(states) == len(result.states)
    for want, got in zip(states, result.states):
        assert np.array_equal(want.u, got.u)
        assert np.array_equal(want.p, got.p)
        assert np.array_equal(want.tilde, got.tilde)


def test_run_energy_records_are_consistent():
    result = run(_tiny_scenario(T=0.1))
    for rec in result.records:
        assert rec.imbalance <= 10.0 * rec.relative_scale(0.02)
    # every stored state satisfies the continuity bound
    for s in result.states:
        assert s.continuity_residual <= 1e-9


# ---------------------------------------------------------------------------
# the extrapolated start of a step
# ---------------------------------------------------------------------------

def test_extrapolation_reproduces_a_polynomial_of_degree_history_depth():
    degree = solver.HISTORY_DEPTH
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((degree + 1, 7))   # highest power first
    # latest first, uneven steps of 0.03 to 0.07
    times = 0.31 - np.concatenate([[0.0], np.cumsum(rng.uniform(0.03, 0.07, degree))])
    values = np.polyval(coeffs, times[:, None])
    reach = times[0] - times[-1]
    for t in times[0] + reach * np.array([0.1, 0.25, 0.5, 0.75]):
        got = solver._extrapolate(times, values, t)
        assert np.allclose(got, np.polyval(coeffs, t), rtol=0, atol=1e-13)
    # two states give the line through them, one state itself
    half_ahead = times[0] + 0.5 * (times[0] - times[1])
    assert np.allclose(solver._extrapolate(times[:2], values[:2], half_ahead),
                       values[0] + (values[0] - values[1]) * 0.5, atol=1e-13)
    assert np.array_equal(solver._extrapolate(times[:1], values[:1], half_ahead),
                          values[0])
    # further ahead than the states reach back: the latest state
    assert np.array_equal(solver._extrapolate(times, values, times[0] + 1.01 * reach),
                          values[0])


def _mms_state(n=8):
    cfg = ScenarioConfig(n=n, nu=0.01, dt=0.01, T=1.0,
                         initial="manufactured_poly", forcing="manufactured_poly")
    disc = build_discretization(build_structured(2, n))
    fields = scenarios.fields_for(cfg)
    return initialize(fields.initial, disc), assemble_load(disc.V, fields.forcing), cfg


def test_step_start_is_bit_identical_to_the_lagrange_formula():
    """The start, the carried start and the new history equal those of
    one Lagrange extrapolation each and a history rebuilt from lists, bit
    for bit: with the initial state in the history, without it, and
    further ahead than the history reaches back."""
    state, load, cfg = _mms_state(4)
    for _ in range(solver.HISTORY_DEPTH + 3):
        for t in (state.t + cfg.dt, state.t + 0.5 * cfg.dt, state.t + 50.0):
            got = solver._step_start(state, t)
            want = orc.lagrange_step_start(state, t, solver.HISTORY_DEPTH)
            assert np.array_equal(got[0], want[0])
            assert (got[1] is None) == (want[1] is None)
            if got[1] is not None:
                assert got[1][0] is want[1][0]
                assert np.array_equal(got[1][1], want[1][1])
            for a, b in zip(got[2], want[2]):
                assert a.shape == b.shape and np.array_equal(a, b)
        state = step(state, load, cfg)


def test_history_holds_arrays_of_the_last_states_and_copies_drop_it():
    state, load, cfg = _mms_state(4)
    assert state.history is None
    states = [state]
    for _ in range(solver.HISTORY_DEPTH + 2):
        states.append(step(states[-1], load, cfg))
    for k, s in enumerate(states[1:], start=1):
        h = s.history
        assert all(isinstance(a, np.ndarray) for a in h)
        earlier = states[max(k - solver.HISTORY_DEPTH, 0):k][::-1]
        assert len(earlier) == min(k, solver.HISTORY_DEPTH)
        assert np.array_equal(h.times, [e.t for e in earlier])
        assert np.array_equal(h.velocities, [e.u for e in earlier])
        # every earlier state but the initial one has its solution
        assert np.array_equal(h.solutions, [e.factor[1] for e in earlier
                                            if e.factor is not None])
        copied = s.copy()
        assert copied.history is None and copied.factor is None
        assert np.array_equal(copied.u, s.u) and copied.t == s.t


def test_step_with_history_reaches_the_state_of_the_step_without():
    state, load, cfg = _mms_state()
    for _ in range(4):
        state = step(state, load, cfg)
    assert state.history is not None
    news = []
    for start in (state, replace(state, history=None)):
        new = step(start, load, cfg)
        rec = energy_ledger_entry(start, new, load, cfg.dt, new.tau_used, cfg.nu)
        assert abs(rec.imbalance) <= 1e-10 * rec.relative_scale(cfg.dt)
        news.append(new)
    extrapolated, plain = news
    assert extrapolated.picard_iters < plain.picard_iters
    assert orc.rel(extrapolated.u, plain.u) <= cfg.picard_tol
    assert orc.rel(extrapolated.p, plain.p) <= cfg.picard_tol
    assert orc.rel(extrapolated.tilde, plain.tilde) <= cfg.picard_tol


def test_extrapolated_start_saves_picard_iterations_and_sweeps():
    """150 steps of the 2-D n = 8 manufactured flow: with the history,
    39.5% of the Picard iterations and 28.3% of the sweeps of the same run
    with the history stripped before every step, and 77 steps take one
    Picard iterate, where the run without takes none (a history of two
    states, a quadratic start, took 63% and 53%, and no such step).  The
    saving grows as the flow settles: 62% of the iterations over the
    first 30 steps, 36% over 300."""
    state, load, cfg = _mms_state()
    plain = state
    counts = np.zeros((2, 2), dtype=int)
    one_iterate = 0
    for _ in range(150):
        state = step(state, load, cfg)
        plain = step(replace(plain, history=None), load, cfg)
        counts += [[state.picard_iters, state.sweeps],
                   [plain.picard_iters, plain.sweeps]]
        one_iterate += state.picard_iters == 1
    assert counts[0, 0] <= 0.45 * counts[1, 0]
    assert counts[0, 1] <= 0.35 * counts[1, 1]
    assert one_iterate >= 60
    assert orc.rel(state.u, plain.u) <= cfg.picard_tol


def test_first_carried_solve_starts_from_the_extrapolated_solution(monkeypatch):
    """After three steps the history holds the initial state, which has
    no solution; after HISTORY_DEPTH + 1 every state in it has one."""
    state, load, cfg = _mms_state(4)
    starts = []
    correct = solver._correct

    def record(A, b, solve, y, *args):
        starts.append(y)
        return correct(A, b, solve, y, *args)

    monkeypatch.setattr(solver, "_correct", record)
    for taken in (3, solver.HISTORY_DEPTH + 1):
        while round(state.t / cfg.dt) < taken:
            state = step(state, load, cfg)
        starts.clear()
        step(state, load, cfg)
        h = state.history
        ys = np.vstack([state.factor[1], h.solutions])
        assert ys.shape[0] == taken
        # each solution at the time of its own state
        times = np.concatenate([[state.t], h.times])[:len(ys)] - (state.t + cfg.dt)
        assert orc.rel(starts[0], np.polyfit(times, ys, len(ys) - 1)[-1]) <= 1e-12


def test_run_assembles_no_load_for_no_step(monkeypatch):
    calls = []

    def counted(V, f):
        calls.append(f)
        return assemble_load(V, f)

    monkeypatch.setattr(solver, "assemble_load", counted)
    cfg = _tiny_scenario(initial="manufactured_poly", forcing="manufactured_poly", T=0)
    assert run(cfg).records == [] and calls == []
    run(replace(cfg, T=cfg.dt))
    assert len(calls) == 1


def test_run_reports_the_most_picard_iterations_of_a_step():
    result = run(_tiny_scenario(T=0.1))
    per_step = [s.picard_iters for s in result.states[1:]]
    assert result.max_picard_iters == max(per_step)
    assert result.picard_iters == sum(per_step)
