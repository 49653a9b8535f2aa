"""Energy bookkeeping, error norms and data bounds.

The per-step energy record certifies the discrete balance

    ½‖u⁺‖² - ½‖uⁿ‖² + ½‖u⁺-uⁿ‖² + ½‖ũ⁺‖² - ½‖ũⁿ‖² + ½‖ũ⁺-ũⁿ‖²
        + dt nu ‖∇u⁺‖² + dt τ⁻¹‖ũ⁺‖²  =  dt (f, u⁺),

whose signed residual ("imbalance") must sit at solver roundoff for every
converged step.  All norms use exactly the assembly operators and
quadrature, so the identity is checked in the algebra the solver actually
works in.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, InternalError
from .fe import quad_norm

__all__ = [
    "EnergyRecord",
    "kinetic_energy",
    "energy_ledger_entry",
    "error_norms",
    "energy_totals",
    "a_priori_bound",
    "hminus1_surrogate",
]

#: machine floor used in the imbalance relative scale
MACHINE_FLOOR = 1e-30


@dataclass(frozen=True)
class EnergyRecord:
    """One row of the energy ledger (all quantities at the END of a step,
    differences taken against the step's start)."""

    t: float
    ke_fe: float          # ½‖u_h‖²
    ke_sub: float         # ½‖ũ_h‖²
    visc_diss: float      # nu ‖∇u_h‖²
    sub_diss: float       # τ⁻¹ ‖ũ_h‖²
    power_in: float       # (f_h, u_h)
    jump_terms: float     # ½‖δu‖² + ½‖δũ‖²
    imbalance: float      # signed residual of the step identity

    def relative_scale(self, dt):
        """Scale of the step identity's terms: the total energy, the
        step's total dissipation and its power input."""
        return max(self.ke_fe + self.ke_sub,
                   dt * (self.visc_diss + self.sub_diss),
                   abs(dt * self.power_in), MACHINE_FLOOR)


def kinetic_energy(V, u, tilde):
    """(½‖u‖²_M, ½‖ũ‖²): the kinetic energies of the resolved coefficients
    ``u`` of V and of the subscale field ``tilde`` at its quadrature
    points."""
    return 0.5 * float(u @ (V.mass @ u)), 0.5 * quad_norm(V, tilde) ** 2


def energy_ledger_entry(prev, new, load, dt, tau, nu):
    """Evaluate the step energy identity between two consecutive states.

    ``load`` is the load vector (f, phi_i) the step used, or None when
    there is no forcing; ``tau`` is the relaxation time the step used.
    """
    V = new.disc.V
    ke_new, ks_new = kinetic_energy(V, new.u, new.tilde)
    ke_old, ks_old = kinetic_energy(V, prev.u, prev.tilde)
    jump = sum(kinetic_energy(V, new.u - prev.u, new.tilde - prev.tilde))
    visc = nu * float(new.u @ (V.stiffness @ new.u))
    sub = 2.0 * ks_new / tau
    power = 0.0 if load is None else float(load @ new.u)

    imbalance = ((ke_new - ke_old) + (ks_new - ks_old) + jump
                 + dt * visc + dt * sub - dt * power)
    return EnergyRecord(t=new.t, ke_fe=ke_new, ke_sub=ks_new,
                        visc_diss=visc, sub_diss=sub, power_in=power,
                        jump_terms=jump, imbalance=imbalance)


def error_norms(state, fields):
    """Quadrature error norms of a state against a scenario's exact
    fields: velocity L², velocity H¹ seminorm, pressure L².  The rule is
    two orders above the assembly rule so the error integrand is
    resolved; the fields are evaluated from its tables."""
    if fields.exact_velocity is None:
        raise ConfigurationError("scenario has no exact solution to compare against")
    disc = state.disc
    V, Q = disc.V, disc.Q
    order = V.quad_order + 2
    tab, tab_q = V.tabulation(order), Q.tabulation(order)
    w = tab["weights"]
    pts = tab["points"].reshape(-1, disc.mesh.dim)
    nc, nq = w.shape

    cell_u = V._cellwise(state.u)                      # (nc, n_loc, comp)
    u_err = tab["phi"] @ cell_u - fields.exact_velocity(pts).reshape(nc, nq, -1)
    gu_err = np.einsum("cqld,clk->cqkd", tab["grad"], cell_u) - \
        fields.exact_velocity_gradient(pts).reshape(nc, nq, V.components, -1)
    p_err = (tab_q["phi"] @ Q._cellwise(state.p))[:, :, 0] - \
        fields.exact_pressure(pts).reshape(nc, nq)
    return {
        "err_vel_l2": float(np.sqrt(np.einsum("cq,cqk,cqk->", w, u_err, u_err))),
        "err_vel_h1": float(np.sqrt(np.einsum("cq,cqkd,cqkd->", w, gu_err, gu_err))),
        "err_p_l2": float(np.sqrt(np.einsum("cq,cq,cq->", w, p_err, p_err))),
    }


# ---------------------------------------------------------------------------
# integrated bounds (refinement-uniformity checks)
# ---------------------------------------------------------------------------

def energy_totals(result):
    """Everything the integrated step identities accumulate over a run:
    final composite kinetic energy + all dissipation + all jumps."""
    if not result.records:
        first = result.states[0]
        return sum(kinetic_energy(result.disc.V, first.u, first.tilde))
    dt = result.config.dt
    last = result.records[-1]
    diss = sum(dt * (r.visc_diss + r.sub_diss) for r in result.records)
    jumps = sum(r.jump_terms for r in result.records)
    return last.ke_fe + last.ke_sub + diss + jumps


def hminus1_surrogate(V, load):
    """Dual-norm surrogate sqrt(loadᵀ K⁻¹ load) on the zero-trace space."""
    with InternalError.from_factorization("H^-1 surrogate factorization failed"):
        z = spla.splu(V.stiffness.tocsc()).solve(load)
    return float(np.sqrt(max(load @ z, 0.0)))


def a_priori_bound(result):
    """Data-side bound dominating the ledger totals:

        ½‖u_0h‖² + ½‖ũ_0h‖² + nu⁻¹ Σ dt ‖f‖²_{dual surrogate}.

    The initial composite energy plus the forcing contribution, from the
    load vector the run's steps applied (``RunResult.load``); with zero
    forcing the exact step identities make the ledger totals equal the
    first two terms.
    """
    V = result.disc.V
    first = result.states[0]
    total = sum(kinetic_energy(V, first.u, first.tilde))
    if result.load is None:
        return total
    dual = hminus1_surrogate(V, result.load)
    T = len(result.records) * result.config.dt
    return total + T * dual ** 2 / result.config.nu
