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
    SensitivityResult,
    Solution,
    SolverStats,
    SquaredErrorLoss,
    dense_eval,
    loss_eval,
)
from .dual import DualScalar, MultiDual
from .solver import (
    JOINT_PRIMAL_DUAL,
    PRIMAL_ONLY,
    SolverConfig,
    rk_step,
    solve,
)
from .direct import (
    complexstep_gradient,
    fd_gradient,
    forwardad_gradient,
    gradient,
)
from .sensitivity import forward_sensitivity
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
    "SensitivityResult",
    "Solution",
    "SolverConfig",
    "SolverStats",
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
    "rk_step",
    "solve",
]
