"""Energy bookkeeping, error norms, data bounds, and the local energy
estimator.

The per-step energy record certifies the discrete balance

    ½‖u⁺‖² - ½‖uⁿ‖² + ½‖u⁺-uⁿ‖² + ½‖ũ⁺‖² - ½‖ũⁿ‖² + ½‖ũ⁺-ũⁿ‖²
        + dt nu ‖∇u⁺‖² + dt τ⁻¹‖ũ⁺‖²  =  dt (f, u⁺),

whose signed residual ("imbalance") must sit at solver roundoff for every
converged step.  All norms use exactly the assembly operators and
quadrature, so the identity is checked in the algebra the solver actually
works in.

The local energy estimator pairs the fields against a space-time test
function that is a tensor product of one-dimensional polynomial bumps
(1-θ²)³ (clipped outside |θ|<1) in each space direction and in time.
Cells fully inside or fully outside the support see a polynomial
integrand, so a sufficiently high-order rule integrates them exactly;
choosing the support box to align with mesh lines removes crossing cells
entirely and makes the whole spatial pairing exact.  Time integration is
trapezoidal over stored snapshots and requires the snapshot cadence to
resolve the window (at least 16 snapshots inside it).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import scenarios
from .errors import ConfigurationError
from .fe import as_qp_field, assemble_load, quad_norm

__all__ = [
    "EnergyRecord",
    "BumpTest",
    "kinetic_energy",
    "energy_ledger_entry",
    "local_energy_residual",
    "error_norms",
    "energy_totals",
    "a_priori_bound",
    "hminus1_surrogate",
]

#: machine floor used in the imbalance relative scale
MACHINE_FLOOR = 1e-30

#: documented snapshot-cadence requirement for the local energy pairing
MIN_SNAPSHOTS_IN_WINDOW = 16


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


# ---------------------------------------------------------------------------
# local energy estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpTest:
    """Tensor-product space-time test function, nonnegative with support
    strictly inside (0, T) x domain.

    Space profile: prod_i (1 - ((x_i - center_i)/radius_i)²)³ clipped to
    its support box; time profile: (1 - ((t - t_center)/t_width)²)³
    clipped.  ``quad_order`` controls the spatial pairing rule; the
    default integrates bump x quadratic-field products exactly on
    non-crossing cells for degree-1 spaces.
    """

    center: tuple
    radius: tuple          # scalar or per-axis half-widths
    t_center: float
    t_width: float
    amplitude: float = 1.0
    quad_order: int = 15

    def _radii(self, dim):
        r = np.atleast_1d(np.asarray(self.radius, dtype=float))
        if r.size == 1:
            r = np.repeat(r, dim)
        if r.size != dim or np.any(r <= 0):
            raise ConfigurationError(
                f"bump radius must be positive (scalar or per-axis), got {self.radius!r}")
        return r

    def space_tables(self, x):
        """Value, gradient, and Laplacian of the space profile at points x.

        x has shape (..., dim).  Returns (value, grad, lap) with shapes
        (...,), (..., dim), (...,).
        """
        x = np.asarray(x, dtype=float)
        dim = x.shape[-1]
        c = np.asarray(self.center, dtype=float)
        if c.shape != (dim,):
            raise ConfigurationError(
                f"bump center has {c.shape} entries for a {dim}-D mesh")
        r = self._radii(dim)
        theta = (x - c) / r
        inside = np.abs(theta) < 1.0
        q = np.where(inside, 1.0 - theta ** 2, 0.0)
        a = q ** 3                                      # (..., dim) factors
        da = np.where(inside, -6.0 * theta * q ** 2 / r, 0.0)
        dda = np.where(inside, (-6.0 * q ** 2 + 24.0 * theta ** 2 * q) / r ** 2, 0.0)
        val = self.amplitude * np.prod(a, axis=-1)
        grad = np.empty_like(theta)
        lap = np.zeros(theta.shape[:-1])
        for i in range(dim):
            others = self.amplitude * np.prod(
                np.delete(a, i, axis=-1), axis=-1)
            grad[..., i] = da[..., i] * others
            lap = lap + dda[..., i] * others
        return val, grad, lap

    def time_profile(self, t):
        theta = (t - self.t_center) / self.t_width
        if abs(theta) >= 1.0:
            return 0.0, 0.0
        q = 1.0 - theta * theta
        return q ** 3, -6.0 * theta * q * q / self.t_width

    def validate_support(self, mesh, t_lo, t_hi):
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        c = np.asarray(self.center, dtype=float)
        r = self._radii(mesh.dim)
        problems = []
        if np.any(c - r < lo - 1e-12) or np.any(c + r > hi + 1e-12):
            problems.append("bump spatial support extends outside the domain")
        if self.t_center - self.t_width < t_lo - 1e-12 or \
           self.t_center + self.t_width > t_hi + 1e-12:
            problems.append("bump time window extends outside the snapshot range")
        if problems:
            raise ConfigurationError(problems)


def _forcing_of(result):
    """The forcing field of a run, or None."""
    return scenarios.fields_for(result.config).forcing


def local_energy_residual(history, bump):
    """Distributional local-energy pairing R(φ) over the snapshots of a
    run (a RunResult).

    R(φ) = ∫∫ [ -½|u|² ∂_t φ - (½|u|² + p) u·∇φ - nu ½|u|² Δφ
                + nu |∇u|² φ - f·u φ ],

    space integrals by per-cell quadrature at the bump's rule, time by
    trapezoid over snapshots.  Negative values are what vanishing-residual
    (suitability-style) behaviour predicts in the limit; at finite h the
    number is a diagnostic.  ``bump`` may be a BumpTest or a list of
    (weight, BumpTest) pairs, which makes linearity in φ directly
    testable.
    """
    states = history.states
    if len(states) < 2:
        raise ConfigurationError("local energy pairing needs at least two snapshots")
    bumps = bump if isinstance(bump, (list, tuple)) else [(1.0, bump)]
    # space tables can be combined across bumps only when the time windows
    # coincide; otherwise split the pairing by linearity
    same_window = all(
        (b.t_center, b.t_width) == (bumps[0][1].t_center, bumps[0][1].t_width)
        for _, b in bumps)
    if not same_window:
        return sum(c_w * local_energy_residual(history, b) for c_w, b in bumps)
    disc = states[0].disc
    V, Q = disc.V, disc.Q
    mesh = disc.mesh
    t = np.array([s.t for s in states])
    for _, b in bumps:
        b.validate_support(mesh, t[0], t[-1])
        n_inside = int(np.sum((t > b.t_center - b.t_width)
                              & (t < b.t_center + b.t_width)))
        if n_inside < MIN_SNAPSHOTS_IN_WINDOW:
            raise ConfigurationError(
                f"only {n_inside} snapshots inside the bump time window; "
                f"need at least {MIN_SNAPSHOTS_IN_WINDOW} (tighten snapshot_every "
                "or widen the window)")

    order = max(b.quad_order for _, b in bumps)
    tab = V.tabulation(order)
    w = tab["weights"]
    x = tab["points"]

    # space tables are time-independent: precompute per bump and combine
    val = np.zeros(w.shape)
    grad = np.zeros(x.shape)
    lap = np.zeros(w.shape)
    for c_w, b in bumps:
        v_b, g_b, l_b = b.space_tables(x)
        val += c_w * v_b
        grad += c_w * g_b
        lap += c_w * l_b

    f = _forcing_of(history)
    f_qp = None if f is None else as_qp_field(V, f, order)
    nu = history.config.nu

    # integrand pieces per snapshot: split by their time factor
    coef_dwdt = np.empty(len(states))   # multiplies dφ/dt
    coef_w = np.empty(len(states))      # multiplies φ's window value
    for i, s in enumerate(states):
        u_qp = V.eval_at_qp(s.u, order)
        grad_u = V.eval_grad_at_qp(s.u, order)
        p_qp = Q.eval_at_qp(s.p, order)[:, :, 0]
        half_u2 = 0.5 * np.einsum("cqk,cqk->cq", u_qp, u_qp)
        gradsq = np.einsum("cqkd,cqkd->cq", grad_u, grad_u)
        fu = 0.0 if f_qp is None else np.einsum("cqk,cqk->cq", f_qp, u_qp)
        coef_dwdt[i] = -np.einsum("cq,cq,cq->", w, half_u2, val)
        coef_w[i] = np.einsum("cq,cq->", w, (
            -np.einsum("cqk,cqk->cq", (half_u2 + p_qp)[:, :, None] * u_qp, grad)
            - nu * half_u2 * lap + nu * gradsq * val - fu))

    b0 = bumps[0][1]
    wt = np.empty(len(states))
    dwt = np.empty(len(states))
    for i, ti in enumerate(t):
        wt[i], dwt[i] = b0.time_profile(ti)
    integrand = coef_dwdt * dwt + coef_w * wt
    dt_seg = np.diff(t)
    return float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * dt_seg))


def error_norms(state, fields, order=None):
    """Quadrature error norms of a state against a scenario's exact
    fields: velocity L², velocity H¹ seminorm, pressure L².  The rule
    order defaults to two above the assembly order so the error integrand
    is resolved."""
    if fields.exact_velocity is None:
        raise ConfigurationError("scenario has no exact solution to compare against")
    disc = state.disc
    V, Q = disc.V, disc.Q
    if order is None:
        order = V.quad_order + 2
    tab = V.tabulation(order)
    w = tab["weights"]
    pts = tab["points"].reshape(-1, disc.mesh.dim)
    nc, nq = w.shape

    u_err = V.eval_at_qp(state.u, order) - \
        fields.exact_velocity(pts).reshape(nc, nq, -1)
    gu_err = V.eval_grad_at_qp(state.u, order) - \
        fields.exact_velocity_gradient(pts).reshape(nc, nq, V.components, -1)
    p_err = Q.eval_at_qp(state.p, order)[:, :, 0] - \
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
    z = spla.splu(V.stiffness.tocsc()).solve(load)
    return float(np.sqrt(max(load @ z, 0.0)))


def a_priori_bound(result):
    """Data-side bound dominating the ledger totals:

        ½‖u_0h‖² + ½‖ũ_0h‖² + nu⁻¹ Σ dt ‖f‖²_{dual surrogate}.

    The initial composite energy plus the forcing contribution; with zero
    forcing the exact step identities make the ledger totals equal the
    first two terms.
    """
    V = result.disc.V
    first = result.states[0]
    total = sum(kinetic_energy(V, first.u, first.tilde))
    f = _forcing_of(result)
    if f is None:
        return total
    dual = hminus1_surrogate(V, assemble_load(V, f))
    T = len(result.records) * result.config.dt
    return total + T * dual ** 2 / result.config.nu
