"""Numerical laboratory for the chordal Loewner equation.

Submodules
----------
driving      driving-function zoo, Hölder norm and scaling estimates
ode          adaptive Runge-Kutta engine with guarded event detection
real_line    real Loewner equation, square-root frame, capture machinery
imaginary    imaginary/transformed equations, vanishing classification
quadrature   QUADPACK's adaptive quadrature, cumulative Simpson, bisection
hull         forward maps, capacity, trace reconstruction, welding, capture bracket
weierstrass  Weierstrass driving: bounds, sweeps, quasislit pipeline
acceptance   the quantitative acceptance suite (also `loewner verify`)
"""

from .driving import (
    DrivingSpec,
    ScalingReport,
    holder_half_norm,
    local_scaling_exponents,
    spec_from_config,
    spec_from_json,
    spec_to_config,
)
from .errors import (
    ConfigError,
    DomainError,
    LoewnerError,
    NumericalError,
    PreconditionError,
    ReconstructionError,
)
from .ode import Event, IntegratorConfig, SolutionPath, integrate, integrate_until

from . import driving, hull, imaginary, ode, real_line, weierstrass  # noqa: E402

__version__ = "0.1.0"
