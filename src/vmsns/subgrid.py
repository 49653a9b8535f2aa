"""Dynamic orthogonal subgrid scales.

The subscale velocity lives in the L²-orthogonal complement of the
resolved velocity space and is driven by the resolved residual
N(u_h, u_h) + ∇p_h.  It is stored pointwise at the quadrature nodes of the
velocity space -- the standard dynamic-subscale representation -- as a
plain array of shape (n_cells, n_qp, dim), and every function that reads
it takes the velocity space explicitly.  The update takes the residual's
complement part π⊥res from its caller: the step reads it off the
projection coefficient ζ its system solves for (``solver`` module
docstring), so no second projection of the residual is made.  The
complement constraint is enforced by one explicit orthogonal projection
after every update.  All invariants tested downstream (orthogonality
defect, closed-form relaxation, energy bookkeeping) are independent of
this storage choice.

The relaxation time tau is a single global scalar per time step,

    tau = max(h² / (C_s nu + C_c h ‖u_h‖_inf), tau_floor),

evaluated with the previous step's velocity, which keeps each linearized
solve genuinely linear.  nu, C_s, C_c and tau_floor are read from the
run's ScenarioConfig; C_s = 4 and C_c = 2 are its defaults.
"""

import numpy as np

from .errors import ConfigurationError, InvariantViolation
from .fe import as_qp_field, l2_project, quad_norm

__all__ = [
    "compute_tau",
    "residual_field",
    "project_orthogonal",
    "advance_subscale",
    "continuity_pairing",
    "transport_pairing",
    "orthogonality_defect",
]

#: guard against 0/0 in the orthogonality ratio on an identically zero field
EPS_NORM = 1e-300


def compute_tau(cfg, h, u_linf):
    """Global subscale relaxation time, held at least at ``cfg.tau_floor``.

    Raises ConfigurationError when it is not positive: a huge nu or
    C_s drives it to 0, and the step divides by it.  The message names
    the settings by their file keys.

    Parameters
    ----------
    cfg : ScenarioConfig
        Supplies nu, C_s, C_c and tau_floor.
    h : float
        Mesh size (largest cell diameter), > 0.
    u_linf : float
        Max-norm of the lagged resolved velocity, >= 0.
    """
    if not (h > 0):
        raise ConfigurationError(f"mesh size must be positive, got {h}")
    if u_linf < 0:
        raise ConfigurationError(f"u_linf must be nonnegative, got {u_linf}")
    tau = max(h * h / (cfg.C_s * cfg.nu + cfg.C_c * h * u_linf), cfg.tau_floor)
    if not tau > 0:
        raise ConfigurationError(
            f"relaxation time tau = {tau!r} is not positive (physics.nu = "
            f"{cfg.nu!r}, stab.C_s = {cfg.C_s!r}, stab.C_c = {cfg.C_c!r}, "
            f"h = {h!r}, |u|_inf = {u_linf!r})")
    return tau


def residual_field(V, Q, u, p, n_fac):
    """Resolved residual N(a, u_h) + ∇p_h at quadrature points.

    N is the skew-symmetrized transport term (a·∇)u + ½(∇·a)u, read off
    ``n_fac``, the advection factor ``fe.advection_factor(V, a)`` of the
    advection velocity a: Σ_i n_i u_i.  The solver passes the factor of
    its last frozen Picard iterate, so the subscale update matches the
    system it eliminated.  V and Q are of one degree, so ∇p_h is taken at
    V's rule.  Returns an array of shape (n_cells, n_qp, dim).
    """
    grad_p = Q.eval_grad_at_qp(p)                    # (nc, nq, 1, d)
    return n_fac @ V._cellwise(u) + grad_p[:, :, 0, :]


def project_orthogonal(f, V):
    """Orthogonal-complement part of a quadrature-point field.

    Computes f - (L² projection of f onto V, evaluated back at the
    quadrature points).  The result pairs to zero with every basis
    function of V up to the mass-solve tolerance.
    """
    f = as_qp_field(V, f)
    coarse = l2_project(f, V)
    return f - V.eval_at_qp(coarse)


def orthogonality_defect(V, tilde):
    """‖π_V ũ‖ / max(‖ũ‖, eps) of a subscale field ``tilde`` of V: must
    stay at solver-roundoff level."""
    coarse = l2_project(tilde, V)
    num = quad_norm(V, V.eval_at_qp(coarse))
    return num / max(quad_norm(V, tilde), EPS_NORM)


def advance_subscale(V, tilde, res_perp, tau, dt):
    """One backward-Euler subscale update of the field ``tilde`` of V with
    the complement part ``res_perp`` = π⊥res of the resolved residual
    frozen,

        ũ⁺ = (ũ/dt − π⊥res) / (1/dt + 1/τ),

    followed by re-projection onto the complement, which removes the
    resolved component that floating-point drift would otherwise let
    accumulate.  Raises InvariantViolation when the update is not finite.
    """
    if not (tau > 0):
        raise ConfigurationError(f"tau must be positive, got {tau}")
    if not (dt > 0):
        raise ConfigurationError(f"dt must be positive, got {dt}")
    new = project_orthogonal((tilde / dt - res_perp) / (1.0 / dt + 1.0 / tau), V)
    if not np.all(np.isfinite(new)):
        raise InvariantViolation("subscale update contains non-finite values")
    return new


def continuity_pairing(Q, qp_field):
    """Vector with entries (field, ∇psi_j) over the pressure basis,
    assembled by quadrature; ``qp_field`` has shape (nc, nq, dim)."""
    return Q.grad_load_from_qp(qp_field)


def transport_pairing(V, n_fac, qp_field):
    """Vector with entries b(a, phi_i, field) = (n_i, field) over the
    velocity basis, assembled by quadrature; ``n_fac`` is the advection
    factor ``fe.advection_factor(V, a)`` of the advecting velocity a,
    shape (nc, nq, nloc), and ``qp_field`` has shape (nc, nq, dim)."""
    w = V.tabulation()["weights"]
    return V.scatter_cells(np.swapaxes(n_fac, 1, 2) @ (w[:, :, None] * qp_field))
