"""Differentiable ODE solving and sensitivity-method cross-validation.

The package pairs an explicit Runge-Kutta core for real and complex
states with every standard way of differentiating an ODE solution: finite
differences, complex step, forward AD via dual numbers and forward
sensitivity equations (one engine for both), a discrete adjoint over the
solver's own step map, and three continuous-adjoint realizations.
"""

from .core import (
    IntegratedLoss,
    LinearStateLoss,
    OdeProblem,
    SquaredErrorLoss,
    dense_eval,
    loss_eval,
)
from .dual import DualScalar, MultiDual
from .solver import (
    JOINT_PRIMAL_DUAL,
    PRIMAL_ONLY,
    SolverConfig,
    solve,
)
from .direct import complexstep_gradient, fd_gradient, gradient
from .sensitivity import forward_sensitivity, forwardad_gradient
from .adjoint import (
    AdjointConfig,
    continuous_adjoint,
    discrete_adjoint,
)
from .problems import make_harmonic, make_heat1d, make_predprey

__version__ = "0.1.0"

__all__ = [
    "AdjointConfig",
    "DualScalar",
    "IntegratedLoss",
    "JOINT_PRIMAL_DUAL",
    "LinearStateLoss",
    "MultiDual",
    "OdeProblem",
    "PRIMAL_ONLY",
    "SolverConfig",
    "SquaredErrorLoss",
    "complexstep_gradient",
    "continuous_adjoint",
    "dense_eval",
    "discrete_adjoint",
    "fd_gradient",
    "forward_sensitivity",
    "forwardad_gradient",
    "gradient",
    "loss_eval",
    "make_harmonic",
    "make_heat1d",
    "make_predprey",
    "solve",
]
