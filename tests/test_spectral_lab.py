"""Spectral operator lab: fractional norms, composite spaces, and the
stability quantities evaluated on them.

The desk-scale numbers pinned here (inf-sup constants, equivalence
ratios) come from validated runs of this module and guard against silent
regressions of the construction; the two-route agreements against
oracles.py are the substantive checks.
"""

import copy
import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from vmsns.errors import ConfigurationError, InternalError, InvariantViolation
from vmsns.fe import build_space
from vmsns.mesh import build_structured
from vmsns.spectral_lab import (
    MAX_DENSE_DOFS,
    S_GRID_INFSUP,
    S_GRID_LERAY,
    S_GRID_WV,
    EquivalenceReport,
    build_star_space,
    composite_norm,
    fractional_norm,
    grad_probe,
    infsup_constant,
    inverse_inequality_constant,
    leray_project,
    leray_star_stability,
    run_equivalence_suite,
    spectral_decompose,
    wv_equivalence,
    _schur,
)

import oracles as orc


@pytest.fixture(scope="module")
def star4(star):
    return star(2, 4)


@pytest.fixture(scope="module", params=(4, 8), ids=("n4", "n8"))
def star_levels(request, star):
    return star(2, request.param)


@pytest.fixture(scope="module")
def dirichlet_pencil():
    W = build_space(build_structured(2, 8), constraint="zero_trace")
    return W.stiffness.toarray(), W.mass.toarray()


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------

def test_single_dof_pencil():
    spec = spectral_decompose([[3.0]], [[4.0]])
    assert abs(spec.eigenvalues[0] - 0.75) < 1e-15
    assert abs(abs(spec.modes[0, 0]) - 0.5) < 1e-15


def test_decomposition_reconstructs_operator(dirichlet_pencil):
    K, M = dirichlet_pencil
    spec = spectral_decompose(K, M)
    MZ = M @ spec.modes
    K_back = (MZ * spec.eigenvalues) @ MZ.T
    assert orc.rel(K_back, K) < 1e-9
    gram = spec.modes.T @ M @ spec.modes
    assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10


def test_dirichlet_ground_eigenvalue():
    W = build_space(build_structured(2, 16), constraint="zero_trace")
    spec = spectral_decompose(W.stiffness.toarray(), W.mass.toarray())
    exact = 2.0 * np.pi ** 2
    assert exact < spec.eigenvalues[0] < 1.02 * exact


def test_decomposition_size_cap():
    n = MAX_DENSE_DOFS + 1
    with pytest.raises(ConfigurationError):
        spectral_decompose(np.eye(n), np.eye(n))


def test_indefinite_metric_is_an_input_error():
    with pytest.raises(ConfigurationError):
        spectral_decompose(np.eye(2), np.diag([1.0, -1.0]))


def test_null_mode_dropping():
    Q = build_space(build_structured(2, 3))
    K = Q.stiffness.toarray()
    M = Q.mass.toarray()
    spec = spectral_decompose(K, M, drop_null=1)
    assert spec.eigenvalues.min() > 1.0
    assert len(spec.eigenvalues) == Q.n_dofs - 1
    # declaring a genuinely nonzero mode null must be caught
    W = build_space(build_structured(2, 3), constraint="zero_trace")
    with pytest.raises(InternalError):
        spectral_decompose(W.stiffness.toarray(), W.mass.toarray(), drop_null=1)
    with pytest.raises(ConfigurationError):
        spectral_decompose([[1.0]], [[1.0]], drop_null=1)


def test_spectrum_check_rejects_tampering(dirichlet_pencil):
    K, M = dirichlet_pencil
    spec = spectral_decompose(K, M)
    from vmsns.spectral_lab import Spectrum

    bad = Spectrum(eigenvalues=spec.eigenvalues,
                   modes=2.0 * spec.modes, metric=spec.metric)
    with pytest.raises(InvariantViolation):
        bad.check()


# ---------------------------------------------------------------------------
# fractional norms
# ---------------------------------------------------------------------------

def test_fractional_norm_integer_orders(dirichlet_pencil):
    """At s in {-1, 0, 1, 2} the spectral norm has closed matrix forms."""
    K, M = dirichlet_pencil
    spec = spectral_decompose(K, M)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(len(K))
    assert abs(fractional_norm(v, 0.0, spec) - np.sqrt(v @ M @ v)) < 1e-10
    assert abs(fractional_norm(v, 1.0, spec) - np.sqrt(v @ K @ v)) < 1e-9
    w = np.linalg.solve(M, K @ v)
    assert abs(fractional_norm(v, 2.0, spec) - np.sqrt(w @ K @ v)) < 1e-8
    z = np.linalg.solve(K, M @ v)
    assert abs(fractional_norm(v, -1.0, spec) - np.sqrt(v @ M @ z)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(s=st.floats(-1.0, 2.0), t=st.floats(0.0, 1.0), seed=st.integers(0, 99))
def test_fractional_norm_log_convexity(s, t, seed):
    """Interpolation inequality ‖w‖_s² <= ‖w‖_{s-t} ‖w‖_{s+t}: Cauchy-Schwarz
    in spectral coordinates, so it must hold for every field."""
    Q = build_space(build_structured(2, 3), constraint="zero_trace")
    spec = spectral_decompose(Q.stiffness.toarray(), Q.mass.toarray())
    v = np.random.default_rng(seed).standard_normal(Q.n_dofs)
    mid = fractional_norm(v, s, spec)
    lo = fractional_norm(v, s - t, spec)
    hi = fractional_norm(v, s + t, spec)
    assert mid * mid <= lo * hi * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# composite space construction
# ---------------------------------------------------------------------------

def test_star_space_dimensions(star4):
    assert star4.n1 == 18
    assert star4.m == 166
    assert star4.n_star == 184
    assert star4.h == pytest.approx(np.sqrt(2.0) / 4.0)


def test_complement_basis_is_orthonormal_and_orthogonal(star4):
    B, M_E, _, J = orc.complement_basis(star4)
    assert B.shape == (M_E.shape[0], star4.m)
    gram = B.T @ M_E @ B
    assert np.max(np.abs(gram - np.eye(star4.m))) < 1e-10
    J_mix = np.vstack([J, np.zeros((star4.Q.n_dofs, star4.n1))])
    cross = B.T @ (M_E @ J_mix)
    assert np.max(np.abs(cross)) < 1e-10


def test_embedding_preserves_the_resolved_geometry(star4):
    # nodal P1 -> P2 interpolation is exact on P1: the pulled-back mass
    # and pressure pairings must coincide with the directly assembled ones
    from vmsns.fe import assemble_gradient_coupling
    from vmsns.spectral_lab import _embedding

    J = _embedding(star4.mesh, star4.V1, star4.V2)
    assert orc.rel(J.T @ star4.V2.mass.toarray() @ J, star4.M1) < 1e-12
    G2 = assemble_gradient_coupling(star4.V2, star4.Q).toarray()
    assert orc.rel(J.T @ G2, star4.G1) < 1e-12


@pytest.mark.parametrize("dim,n", ((2, 4), (2, 8), (2, 12), (3, 2)))
def test_complement_pairing_from_reflectors_matches_the_explicit_basis(star, dim, n):
    """T_pp, formed by applying the QR's Householder reflectors, is BᵀG_E
    of the complement basis the complete QR forms explicitly."""
    space = star(dim, n)
    basis = orc.complement_basis(space)
    assert space.T_pp.shape == (basis.B.shape[1], space.Q.n_dofs)
    assert orc.rel(space.T_pp, basis.B.T @ basis.G_E) < 1e-12


def test_star_space_build_keeps_few_enriched_square_arrays():
    """At most six n_E-square arrays of doubles at the peak of a build
    (n_E = n2 + np): the Gram's eigh works in place, and neither the
    complete Q nor the complement basis is formed."""
    mesh = build_structured(2, 8)
    tracemalloc.start()
    try:
        space = build_star_space(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_E = space.V2.n_dofs + space.Q.n_dofs
    assert peak <= 6 * 8 * n_E ** 2, peak / (8 * n_E ** 2)


def test_gradient_pythagoras(star4):
    """‖∇q‖² splits exactly into resolved and complement parts: the
    enriched space contains every discrete pressure gradient, which is
    the design property the fractional inf-sup bound needs."""
    rng = np.random.default_rng(1)
    K_p = star4.Q.stiffness.toarray()
    for _ in range(5):
        q = rng.standard_normal(star4.Q.n_dofs)
        resolved = (star4.G1 @ q) @ np.linalg.solve(star4.M1, star4.G1 @ q)
        perp = star4.T_pp @ q
        total = q @ K_p @ q
        assert abs(resolved + perp @ perp - total) < 1e-9 * max(total, 1.0)


@pytest.mark.parametrize("n", (4, 8, 12))
def test_complement_pairing_is_the_pressure_schur_identity(star, n):
    """T_ppᵀT_pp = K_p - G1ᵀM1⁻¹G1: the complement part of every discrete
    pressure gradient follows from the resolved pairing alone, so the
    composite inf-sup form needs no complement basis."""
    space = star(2, n)
    K_p = space.Q.stiffness.toarray()
    TT = space.T_pp.T @ space.T_pp
    assert orc.rel(TT, K_p - space.G1.T @ np.linalg.solve(space.M1, space.G1)) < 1e-12


def test_split_validates_length(star4):
    with pytest.raises(ConfigurationError):
        star4.split(np.zeros(star4.n_star + 1))


def test_star_space_needs_interior_freedom():
    with pytest.raises(ConfigurationError):
        build_star_space(build_structured(2, 1))


def test_star_norm_block_structure(star4):
    rng = np.random.default_rng(2)
    v = rng.standard_normal(star4.n_star)
    fe, perp = star4.split(v)
    s = 0.75
    only_fe = composite_norm(star4, np.concatenate([fe, np.zeros(star4.m)]), s)
    assert abs(only_fe - fractional_norm(fe, s, star4.velocity)) < 1e-13
    only_perp = composite_norm(star4, np.concatenate([np.zeros(star4.n1), perp]), s)
    assert abs(only_perp - star4.h ** (-s) * np.linalg.norm(perp)) < 1e-13
    both = composite_norm(star4, v, s)
    assert abs(both ** 2 - only_fe ** 2 - only_perp ** 2) < 1e-12 * both ** 2


def test_composite_norm_against_explicit_operator(star4):
    """Two-route check: the blockwise norm must agree with assembling the
    composite operator explicitly and decomposing it spectrally."""
    closure = orc.explicit_star_norm(star4)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(star4.n_star)
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            a = composite_norm(star4, v, s)
            b = closure(v, s)
            worst = max(worst, abs(a - b) / abs(b))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# inf-sup constants
# ---------------------------------------------------------------------------

def test_plain_equal_order_pairing_degenerates(star4):
    """Without the complement the resolved pairing has a 7-dimensional
    spurious pressure kernel on this grid (rank 17 against 24 mean-free
    pressures), so the plain inf-sup constant is exactly zero."""
    assert np.linalg.matrix_rank(star4.G1, tol=1e-10) == 17
    assert infsup_constant(star4, 0.0, include_complement=False) == 0.0
    assert infsup_constant(star4, 1.0, include_complement=False) == 0.0


def test_star_infsup_at_the_consistency_index(star):
    """At s = 1 the complement carries the orthogonal part of every ∇q,
    so the form is the pressure stiffness against itself: the constant is
    1 by construction, not up to the roundoff of a Schur product."""
    for dim, n in ((2, 2), (2, 4), (2, 8), (2, 16), (3, 2)):
        assert abs(infsup_constant(star(dim, n), 1.0) - 1.0) <= 1e-14, (dim, n)


def test_star_infsup_pinned_values(star4):
    assert abs(infsup_constant(star4, 0.0) - 0.759244891743339) < 1e-9
    assert abs(infsup_constant(star4, 0.5) - 0.857689818914797) < 1e-9


def test_star_infsup_against_explicit_definition(star4):
    """Two-route check: the modal Schur form must agree with the dual norm
    over the explicit composite Gram, minimised against a pressure metric
    built by a matrix fractional power on the mean-free pressures."""
    for s in S_GRID_INFSUP:
        want = orc.explicit_infsup_constant(star4, s)
        assert abs(infsup_constant(star4, s) - want) < 1e-9


def test_star_infsup_monotone_in_s(star4):
    vals = [infsup_constant(star4, s) for s in S_GRID_INFSUP]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.5


def test_star_infsup_positive_on_the_smallest_mesh():
    tiny = build_star_space(build_structured(2, 2))
    for s in (0.0, 0.5, 1.0):
        assert infsup_constant(tiny, s) > 0.3


# ---------------------------------------------------------------------------
# constrained projection
# ---------------------------------------------------------------------------

def test_leray_projection_is_idempotent_and_constrained(star4):
    rng = np.random.default_rng(4)
    v = rng.standard_normal(star4.n_star)
    u, mult = leray_project(star4, v)
    scale = np.linalg.norm(u)
    fe, perp = star4.split(u)
    constraint = star4.G1.T @ fe + star4.T_pp.T @ perp
    assert np.max(np.abs(constraint)) < 1e-9 * max(scale, 1.0)
    again, _ = leray_project(star4, u)
    assert orc.rel(again, u) < 1e-10


def test_leray_annihilates_pressure_gradients(star4):
    rng = np.random.default_rng(5)
    probe = grad_probe(star4, rng.standard_normal(star4.Q.n_dofs))
    u, _ = leray_project(star4, probe)
    assert np.linalg.norm(u) < 1e-9 * np.linalg.norm(probe)


def test_leray_contracts_the_composite_mass_norm(star4):
    rng = np.random.default_rng(6)
    probes = [rng.standard_normal(star4.n_star) for _ in range(6)]
    probes.append(grad_probe(star4, rng.standard_normal(star4.Q.n_dofs))
                  + 0.1 * rng.standard_normal(star4.n_star))
    for v in probes:
        assert leray_star_stability(star4, v, 0.0) <= 1.0 + 1e-10


def test_unpinned_singular_schur_complement_is_an_internal_error(star4):
    # with a zero pressure stiffness and no pin, S + m_p m_pᵀ is exactly
    # zero, so the Cholesky factorization fails at its first pivot
    Q = copy.copy(star4.Q)
    Q.stiffness = 0.0 * star4.Q.stiffness
    blank = dataclasses.replace(star4, Q=Q, m_p=np.zeros_like(star4.m_p))
    with pytest.raises(InternalError, match="not positive definite"):
        leray_project(blank, np.ones(blank.n_star))


def test_a_replaced_star_space_computes_its_own_schur_factor(star4):
    # dataclasses.replace gives the new space an empty cache, so a space
    # with another pressure pin is not served the factor of the first
    _schur(star4)
    pinned = dataclasses.replace(star4, m_p=2.0 * star4.m_p)
    K = star4.Q.stiffness.toarray() + np.outer(pinned.m_p, pinned.m_p)
    b = np.ones(len(K))
    assert orc.rel(K @ sla.cho_solve(_schur(pinned)[2], b), b) < 1e-10


def test_leray_stability_rejects_zero_probe(star4):
    with pytest.raises(ConfigurationError):
        leray_star_stability(star4, np.zeros(star4.n_star), 0.0)


def test_ritz_projection_fixes_divergence_free_fields(star4):
    rng = np.random.default_rng(7)
    u, _ = leray_project(star4, rng.standard_normal(star4.n_star))
    w, _ = orc.dense_saddle_project(star4, orc.apply_form, u)
    assert orc.rel(w, u) < 1e-8


def test_leray_projection_against_dense_saddle_oracle(star_levels):
    """Two-route check: the projection and multiplier through the pinned
    pressure Schur complement against one dense saddle solve per probe."""
    space = star_levels
    rng = np.random.default_rng(9)
    probes = [rng.standard_normal(space.n_star) for _ in range(3)]
    probes.append(grad_probe(space, rng.standard_normal(space.Q.n_dofs))
                  + 0.1 * rng.standard_normal(space.n_star))
    for v in probes:
        u, r = leray_project(space, v)
        u_o, r_o = orc.dense_saddle_project(space, orc.apply_mass, v)
        assert orc.rel(u, u_o) < 1e-10
        assert orc.rel(r, r_o) < 1e-10


# ---------------------------------------------------------------------------
# norm equivalence on the divergence-free subspace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim, n", ((2, 2), (2, 3), (2, 4), (2, 8), (3, 2)),
                         ids=("n2", "n3", "n4", "n8", "3d-n2"))
def test_wv_equivalence_against_generalized_pencil_oracle(star, dim, n):
    """Two-route check: the n1-sized reduction merged with the unit
    quotient of the fields without a resolved part, against the
    generalized pencil over an explicit null-space basis of the whole
    divergence-free subspace, for every s of the report grid.  On the
    coarsest meshes the unit quotient is an extreme at most s."""
    space = star(dim, n)
    for s in S_GRID_WV:
        lo, hi = wv_equivalence(space, s)
        lo_o, hi_o = orc.dense_wv_equivalence(space, s)
        assert abs(lo - lo_o) < 1e-10 * abs(lo_o)
        assert abs(hi - hi_o) < 1e-10 * abs(hi_o)


def test_wv_equivalence_is_exact_at_the_endpoints(star4):
    for s in (0.0, 1.0):
        lo, hi = wv_equivalence(star4, s)
        assert abs(lo - 1.0) < 1e-10
        assert abs(hi - 1.0) < 1e-10


def test_wv_equivalence_interior_pinned(star4):
    lo, hi = wv_equivalence(star4, 0.5)
    assert abs(lo - 0.829477340044579) < 1e-9
    assert hi <= 1.0 + 1e-10
    assert lo > 0.8


def test_wv_equivalence_outside_unit_interval(star4):
    for s in (-0.25, 1.5):
        lo, hi = wv_equivalence(star4, s)
        assert 0.0 < lo <= hi * (1.0 + 1e-12)
        assert np.isfinite(hi)


# ---------------------------------------------------------------------------
# inverse inequality
# ---------------------------------------------------------------------------

def test_inverse_inequality_bound_and_sharpness(star4):
    """C(h, s) must dominate the H¹-scale/fractional-scale ratio for every
    resolved field and be attained by the extremal eigenmode."""
    spec = star4.velocity
    rng = np.random.default_rng(8)

    def h1_scale(v):
        return float(np.hypot(fractional_norm(v, 0.0, spec),
                              fractional_norm(v, 1.0, spec)))

    for s in (0.0, 0.5, 1.0):
        C = inverse_inequality_constant(star4, s)
        bound = C * star4.h ** (s - 1.0)
        ratios = []
        for _ in range(8):
            v = rng.standard_normal(star4.n1)
            ratios.append(h1_scale(v) / fractional_norm(v, s, spec))
        assert max(ratios) <= bound * (1.0 + 1e-12)
        k = int(np.argmax(np.sqrt(1.0 + spec.eigenvalues)
                          / spec.eigenvalues ** (0.5 * s)))
        extremal = spec.modes[:, k]
        attained = h1_scale(extremal) / fractional_norm(extremal, s, spec)
        assert abs(attained - bound) < 1e-9 * bound


def test_inverse_inequality_s1_saturates_at_the_ground_mode(star4):
    # sqrt(1+lam)/sqrt(lam) decreases in lam, so the ground mode is extremal
    lam_min = star4.velocity.eigenvalues.min()
    want = np.sqrt(1.0 + lam_min) / np.sqrt(lam_min)
    assert abs(inverse_inequality_constant(star4, 1.0) - want) < 1e-12


# ---------------------------------------------------------------------------
# report suite
# ---------------------------------------------------------------------------

def test_equivalence_suite_structure():
    report = run_equivalence_suite(levels=(2, 4), n_probes=2)
    per_level = len(S_GRID_WV) + 2 * len(S_GRID_INFSUP) + len(S_GRID_LERAY) \
        + len(S_GRID_INFSUP)
    assert len(report.rows) == 2 * per_level
    assert set(r.lemma for r in report.rows) == {
        "wv_equivalence", "infsup_star", "infsup_plain",
        "leray_stability", "inverse_inequality"}
    for row in report.rows:
        assert np.isfinite(row.value)
        assert row.value >= 0.0
    for row in report.by_lemma("leray_stability"):
        if row.s == 0.0:
            assert row.ratio_max <= 1.0 + 1e-10
    hs = sorted({r.h for r in report.rows}, reverse=True)
    assert len(hs) == 2 and hs[1] == pytest.approx(hs[0] / 2.0)
    assert EquivalenceReport.HEADER[0] == "lemma"


#: the benchmark's recorded lab outputs, read here and never written
REFERENCE_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "benchmark", "reference.json")


def _agrees_with_reference(got, want):
    """The benchmark's rule: 1e-8 relative, and at most 1e-6 where the
    reference is zero by construction (at most 1e-10); NaN matches NaN."""
    if math.isnan(want):
        return math.isnan(got)
    if abs(want) <= 1e-10:
        return abs(got) <= 1e-6
    return abs(got - want) <= 1e-8 * abs(want)


def test_seeded_report_matches_the_benchmark_reference_on_levels_0_and_1():
    """The Leray rows depend bit for bit on the assembly of M2, G2, K_p and
    J (noise of 1e-15 moves them by 0.1%), so this pins the assembly and
    the numbering the lab builds on."""
    with open(REFERENCE_JSON, encoding="utf-8") as fh:
        reference = json.load(fh)
    assert reference["seed"] == 0
    want = [row for row in reference["spectra_4_8_12"]["rows"] if row[2] < 2]
    report = run_equivalence_suite(levels=(4, 8), seed=0)
    got = [[r.lemma, r.s, r.level, r.h, r.value, r.ratio_min, r.ratio_max]
           for r in report.rows]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:3] == w[:3]
        assert all(_agrees_with_reference(a, b) for a, b in zip(g[3:], w[3:])), (g, w)
