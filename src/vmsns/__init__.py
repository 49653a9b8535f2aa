"""Equal-order finite elements for incompressible flow with dynamic,
L²-orthogonal subgrid scales, plus the spectral diagnostics that certify
the scheme's discrete energy and stability structure at desk scale.

The package splits into the solver chain (mesh -> fe -> subgrid ->
solver), the run-facing layers (scenarios, config, diagnostics, io, cli),
and the spectral lab, which verifies norm-equivalence, inf-sup, inverse,
and projection-stability estimates on small dense models of the composite
resolved-plus-subgrid space.
"""

from .config import ScenarioConfig, parse_config
from .errors import (ConfigurationError, InternalError, InvariantViolation,
                     SolverDivergence, SolverNonconvergence, UsageError,
                     VmsnsError)
from .mesh import Mesh, build_structured
from .solver import RunResult, StarState, build_discretization, initialize, \
    run, step
from .subgrid import compute_tau

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "VmsnsError",
    "ConfigurationError",
    "UsageError",
    "SolverNonconvergence",
    "SolverDivergence",
    "InvariantViolation",
    "InternalError",
    "Mesh",
    "build_structured",
    "compute_tau",
    "StarState",
    "RunResult",
    "build_discretization",
    "initialize",
    "step",
    "run",
]

__version__ = "0.1.0"
