"""Built-in flow scenarios: initial fields, forcings, and (where known)
exact solutions.

All callables are vectorized over point arrays of shape (n, dim) and
return (n, components) values.  Every forcing is steady, so a scenario's
``forcing`` is either None (no forcing) or such a callable.

The manufactured steady state drives a divergence-free polynomial stream
function through the momentum equation, which supplies analytic velocity,
pressure, gradient, and forcing for convergence studies.  The decaying
vortex is a smooth divergence-free, zero-trace initial field used for
energy-transport runs; it is not an exact solution, so no error fields
are attached.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["ScenarioFields", "fields_for",
           "INITIAL_CHOICES", "FORCING_CHOICES"]

INITIAL_CHOICES = ("zero", "decaying_vortex", "manufactured_poly")
FORCING_CHOICES = ("none", "manufactured_poly")

#: amplitude of the manufactured stream function (x²(1-x)² peaks at 1/16,
#: so this scale gives velocities of order one)
POLY_SCALE = 16.0


@dataclass(frozen=True)
class ScenarioFields:
    """Callable bundle a run consumes: initial velocity and forcing, plus
    exact fields when the scenario has a closed form (else None)."""

    initial: object
    forcing: object
    exact_velocity: object = None
    exact_velocity_gradient: object = None
    exact_pressure: object = None


def _zero_initial(dim):
    def field(x):
        x = np.asarray(x, dtype=float)
        return np.zeros((x.shape[0], dim))

    return field


def _vortex_velocity(x):
    """Stream function sin²(pi x) sin²(pi y) / pi: divergence-free and
    vanishing (with its tangential derivative) on the unit-square boundary."""
    x = np.asarray(x, dtype=float)
    sx, cx = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
    sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
    return np.stack([2.0 * sx * sx * sy * cy,
                     -2.0 * sx * cx * sy * sy], axis=-1)


# -- manufactured polynomial steady state -----------------------------------

def _g(t):
    return t * t * (1.0 - t) ** 2


def _dg(t):
    return 2.0 * t * (1.0 - t) * (1.0 - 2.0 * t)


def _ddg(t):
    return 2.0 * (1.0 - 6.0 * t + 6.0 * t * t)


def _dddg(t):
    return 12.0 * (2.0 * t - 1.0)


def _poly_velocity(x):
    x = np.asarray(x, dtype=float)
    X, Y = x[:, 0], x[:, 1]
    return POLY_SCALE * np.stack([_g(X) * _dg(Y), -_dg(X) * _g(Y)], axis=-1)


def _poly_velocity_gradient(x):
    """Rows: component, columns: derivative direction (shape (n, 2, 2))."""
    x = np.asarray(x, dtype=float)
    X, Y = x[:, 0], x[:, 1]
    out = np.empty((x.shape[0], 2, 2))
    out[:, 0, 0] = _dg(X) * _dg(Y)
    out[:, 0, 1] = _g(X) * _ddg(Y)
    out[:, 1, 0] = -_ddg(X) * _g(Y)
    out[:, 1, 1] = -_dg(X) * _dg(Y)
    return POLY_SCALE * out


def _poly_pressure(x):
    x = np.asarray(x, dtype=float)
    return (x[:, 0] ** 3 + x[:, 1] ** 3 - 0.5)[:, None]


def _poly_forcing(nu):
    """Steady momentum residual of the exact pair: (u·∇)u - nu Δu + ∇p."""

    def field(x):
        x = np.asarray(x, dtype=float)
        X, Y = x[:, 0], x[:, 1]
        u = _poly_velocity(x)
        gu = _poly_velocity_gradient(x)
        conv = np.einsum("nk,nik->ni", u, gu)
        lap = POLY_SCALE * np.stack(
            [_ddg(X) * _dg(Y) + _g(X) * _dddg(Y),
             -_dddg(X) * _g(Y) - _dg(X) * _ddg(Y)], axis=-1)
        grad_p = np.stack([3.0 * X * X, 3.0 * Y * Y], axis=-1)
        return conv - nu * lap + grad_p

    return field


def fields_for(scenario):
    """Resolve a ScenarioConfig's initial/forcing names to field callables.

    The config checked the names when it was made; what is left to check
    is that a scenario other than the zero flow is two-dimensional.
    """
    dim = scenario.dim
    initial_name = scenario.initial
    forcing_name = scenario.forcing
    if dim != 2 and (initial_name != "zero" or forcing_name != "none"):
        raise ConfigurationError(
            f"scenario ({initial_name!r}, {forcing_name!r}) is two-dimensional; "
            f"got a {dim}-D mesh")

    exact_u = exact_gu = exact_p = forcing = None
    if initial_name == "zero":
        initial = _zero_initial(dim)
    elif initial_name == "decaying_vortex":
        initial = _vortex_velocity
    else:
        initial = _poly_velocity

    if forcing_name != "none":
        forcing = _poly_forcing(scenario.nu)
        # forcing pins the manufactured steady state: exact fields apply
        exact_u = _poly_velocity
        exact_gu = _poly_velocity_gradient
        exact_p = _poly_pressure

    return ScenarioFields(initial=initial, forcing=forcing,
                          exact_velocity=exact_u,
                          exact_velocity_gradient=exact_gu,
                          exact_pressure=exact_p)
