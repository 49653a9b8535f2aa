"""Dynamic orthogonal subgrid scales.

The subscale velocity lives in the L²-orthogonal complement of the
resolved velocity space and is driven by the resolved residual
N(u_h, u_h) + ∇p_h.  It is stored pointwise at the quadrature nodes of the
velocity space -- the standard dynamic-subscale representation -- with the
complement constraint enforced by explicit orthogonal projection after
every update.  All invariants tested downstream (orthogonality defect,
closed-form relaxation, energy bookkeeping) are independent of this
storage choice.

The relaxation time tau is a single global scalar per time step,

    tau = max(h² / (C_s nu + C_c h ‖u_h‖_inf), tau_floor),

evaluated with the previous step's velocity, which keeps each linearized
solve genuinely linear.  nu, C_s, C_c and tau_floor are read from the
run's ScenarioConfig; C_s = 4 and C_c = 2 are its defaults.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvariantViolation
from .fe import _scatter_add, as_qp_field, l2_project, quad_norm

__all__ = [
    "SubscaleField",
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


@dataclass
class SubscaleField:
    """Subscale velocity sampled at the quadrature points of ``space``.

    values has shape (n_cells, n_qp, dim).
    """

    values: np.ndarray = field(repr=False)
    space: object = None

    def copy(self):
        return SubscaleField(values=self.values.copy(), space=self.space)

    def norm_l2(self):
        return quad_norm(self.space, self.values)

    def check_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise InvariantViolation("subscale field contains non-finite values")
        return self


def zero_subscale(V):
    tab = V.tabulation()
    shape = (V.mesh.n_cells, tab["weights"].shape[1], V.components)
    return SubscaleField(values=np.zeros(shape), space=V)


def compute_tau(cfg, h, u_linf):
    """Global subscale relaxation time, held at least at ``cfg.tau_floor``.

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
    tau = h * h / (cfg.C_s * cfg.nu + cfg.C_c * h * u_linf)
    return max(tau, cfg.tau_floor)


def residual_field(V, Q, u, p, n_fac):
    """Resolved residual N(a, u_h) + ∇p_h at quadrature points.

    N is the skew-symmetrized transport term (a·∇)u + ½(∇·a)u, read off
    ``n_fac``, the advection factor ``fe.advection_factor(V, a)`` of the
    advection velocity a: Σ_i n_i u_i.  The solver passes the factor of
    its last frozen Picard iterate, so the subscale update matches the
    system it eliminated.  Returns an array of shape (n_cells, n_qp, dim).
    """
    grad_p = Q.eval_grad_at_qp(p, V.quad_order)      # (nc, nq, 1, d)
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


def orthogonality_defect(tilde):
    """‖π_V ũ‖ / max(‖ũ‖, eps): must stay at solver-roundoff level."""
    V = tilde.space
    coarse = l2_project(tilde.values, V)
    num = quad_norm(V, V.eval_at_qp(coarse))
    den = max(tilde.norm_l2(), EPS_NORM)
    return num / den


def advance_subscale(tilde_old, res, tau, dt):
    """One backward-Euler subscale update with the resolved residual frozen,

        ũ⁺ = (ũ/dt − π⊥res) / (1/dt + 1/τ),

    followed by re-projection onto the complement, which removes the
    resolved component that floating-point drift (and a non-orthogonal
    residual argument) would otherwise let accumulate.
    """
    if not (tau > 0):
        raise ConfigurationError(f"tau must be positive, got {tau}")
    if not (dt > 0):
        raise ConfigurationError(f"dt must be positive, got {dt}")
    V = tilde_old.space
    res_perp = project_orthogonal(res, V)
    new = (tilde_old.values / dt - res_perp) / (1.0 / dt + 1.0 / tau)
    new = project_orthogonal(new, V)
    return SubscaleField(values=new, space=V).check_finite()


def continuity_pairing(Q, qp_field):
    """Vector with entries (field, ∇psi_j) over the pressure basis,
    assembled by quadrature; ``qp_field`` has shape (nc, nq, dim)."""
    tab = Q.tabulation()
    grad = tab["grad"]                               # (nc, nq, nloc, dim)
    nc, nq, nloc, dim = grad.shape
    # per cell, the (nloc, nq·dim) gradient table times the weighted field
    grad_t = np.swapaxes(grad, 1, 2).reshape(nc, nloc, nq * dim)
    wf = (tab["weights"][:, :, None] * qp_field).reshape(nc, nq * dim, 1)
    return _scatter_add(Q, grad_t @ wf)


def transport_pairing(V, n_fac, qp_field):
    """Vector with entries b(a, phi_i, field) = (n_i, field) over the
    velocity basis, assembled by quadrature; ``n_fac`` is the advection
    factor ``fe.advection_factor(V, a)`` of the advecting velocity a,
    shape (nc, nq, nloc), and ``qp_field`` has shape (nc, nq, dim)."""
    w = V.tabulation()["weights"]
    return _scatter_add(V, np.swapaxes(n_fac, 1, 2) @ (w[:, :, None] * qp_field))
