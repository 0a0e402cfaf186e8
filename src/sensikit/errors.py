"""Exception types shared across the library."""


class SensikitError(Exception):
    """Base class for all library-specific failures."""


class NonSmoothPointError(SensikitError, ArithmeticError):
    """A lifted function was evaluated where it is not differentiable."""


class AnalyticityError(SensikitError, TypeError):
    """A non-analytic primitive on the complex-step path, or ``float()`` of a multidual."""


class _StepError(SensikitError):
    """A failure of the stepping loop, carrying the time ``t`` and stepsize ``dt`` it stood at."""

    def __init__(self, message, t=None, dt=None):
        super().__init__(message)
        self.t = t
        self.dt = dt


class NumericalBlowupError(_StepError, ArithmeticError):
    """A non-finite value appeared during integration."""


class StepsizeUnderflowError(_StepError, ArithmeticError):
    """The adaptive controller shrank the stepsize below resolvable size."""


class NonConvergenceError(_StepError, RuntimeError):
    """The step budget was exhausted before reaching the end of the span."""


class DivergenceError(SensikitError, RuntimeError):
    """An optimization run increased the loss for too many iterations."""
