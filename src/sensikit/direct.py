"""Gradient drivers, and ``gradient``: one entry point for every method.

Finite differences and complex step treat the solve-plus-loss pipeline as
a black box over real or complex scalars.  ``gradient`` selects any of the
``METHODS`` by name: these drivers, forward AD and forward sensitivities
(``sensitivity``), the discrete adjoint and the three continuous adjoints
(``adjoint``).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import replace

import numpy as np

from .adjoint import AdjointConfig, check_checkpoints, continuous_adjoint
from .core import OdeProblem, SensitivityResult, SolverStats, check_request, loss_eval
from .errors import AnalyticityError, NumericalBlowupError
from .sensitivity import forward_sensitivity, forwardad_gradient
from .solver import PRIMAL_ONLY, SolverConfig, solve

METHODS = (
    "forward_fd",
    "centered_fd",
    "complex_step",
    "forward_ad",
    "forward_ad_primal_only",
    "forward_sensitivity",
    "discrete_adjoint",
    "continuous_backsolve",
    "continuous_interpolating",
    "continuous_quadrature",
)

# numpy warns, and drops the imaginary part, on float() of a complex scalar
# (numpy.exceptions from 1.25 on, the top level before 2.0)
_ComplexWarning = getattr(np, "exceptions", np).ComplexWarning


def default_epsilon(method: str, theta) -> np.ndarray:
    """Perturbation sizes: 1e-6 scaled by parameter magnitude for centered
    differences, 1e-12 for complex step (which tolerates tiny steps)."""
    theta = np.asarray(theta, dtype=float)
    if method == "complex_step":
        return np.full(theta.shape, 1e-12)
    return 1e-6 * np.maximum(1.0, np.abs(theta))


def _perturbations(eps, theta):
    """``eps`` as one stepsize per component of ``theta``, each positive and finite."""
    eps = np.asarray(eps, dtype=float)
    try:
        eps = np.broadcast_to(eps, theta.shape)
    except ValueError:  # numpy's message names neither eps nor the shape it needs
        raise ValueError(f"eps must be a scalar or of shape {theta.shape}, "
                         f"got shape {eps.shape}") from None
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    if not np.isfinite(eps).all():  # NaN passes the check above
        raise ValueError("eps must be finite")
    return eps


def fd_gradient(loss_fn, theta, eps, scheme="centered") -> np.ndarray:
    """Finite-difference gradient of a scalar function of the parameters.

    One component is perturbed at a time: ``p + 1`` evaluations for the
    forward scheme, ``2 p`` for centered.  ``eps`` may be a scalar or one
    stepsize per component.
    """
    if scheme not in ("forward", "centered"):
        raise ValueError(f"unknown finite-difference scheme {scheme!r}")
    theta = np.asarray(theta, dtype=float)
    eps = _perturbations(eps, theta)
    grad = np.zeros_like(theta)
    base = loss_fn(theta) if scheme == "forward" else None
    if base is not None and not math.isfinite(base):
        raise NumericalBlowupError("loss is non-finite at the base point")
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += eps[i]
        l_plus = loss_fn(plus)
        if scheme == "forward":
            l_minus = base
            denom = eps[i]
        else:
            minus = theta.copy()
            minus[i] -= eps[i]
            l_minus = loss_fn(minus)
            denom = 2 * eps[i]
        if not (math.isfinite(l_plus) and math.isfinite(l_minus)):
            raise NumericalBlowupError(
                f"non-finite loss while perturbing component {i}"
            )
        grad[i] = (l_plus - l_minus) / denom
    return grad


def complexstep_gradient(loss_fn, theta, eps) -> np.ndarray:
    """Complex-step gradient ``Im(L(theta + i eps e_i)) / eps`` per component.

    Free of subtractive cancellation, so ``eps`` can sit near machine
    precision; the whole pipeline must be evaluable on complex scalars and
    built from locally analytic primitives.  ``float()`` of a complex
    scalar, which ``math.sin`` or ``np.asarray(u, dtype=float)`` take,
    raises ``AnalyticityError`` rather than drop the perturbation.
    """
    theta = np.asarray(theta, dtype=float)
    eps = _perturbations(eps, theta)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        z = theta.astype(complex)
        z[i] += 1j * eps[i]
        with warnings.catch_warnings():
            warnings.simplefilter("error", _ComplexWarning)
            try:
                val = complex(loss_fn(z))
            except _ComplexWarning as err:
                raise AnalyticityError(
                    "float() of a complex number drops the complex step's perturbation; use "
                    "numpy's functions (np.sin, not math.sin; no dtype=float) or centered_fd"
                ) from err
        grad[i] = val.imag / eps[i]
        # both parts: a non-finite real part leaves Im(L) / eps a number
        if not (cmath.isfinite(val) and math.isfinite(grad[i])):
            raise NumericalBlowupError(
                f"non-finite loss while perturbing component {i}"
            )
    return grad


def solver_loss_fn(problem: OdeProblem, loss, config: SolverConfig):
    """Parameter-to-loss map through the solver, generic over scalar kind.

    Complex parameters make the solve's states complex (numpy promotes the
    float initial state at the first step); the solver and loss evaluation
    run unchanged on either kind.  The request is checked when the map is
    built, before any solve; as the map perturbs ``theta`` only, a nonzero
    ``u0_jacobian`` is refused there too (``ValueError``).
    """
    problem, loss, _ = check_request(problem, loss, saveat=config.saveat)
    if np.any(problem.initial_state_jacobian()):
        raise ValueError("unsupported configuration: finite differences and complex step "
                         "perturb theta only, so they miss the initial state's dependence on "
                         "theta (nonzero u0_jacobian); use forward_ad, forward_sensitivity "
                         "or an adjoint method")
    counter = SolverStats()

    def fn(theta):
        sol = solve(problem, config, theta=theta)
        counter.merge(sol.stats)
        return loss_eval(sol, loss)

    fn.stats = counter
    return fn


def gradient(problem: OdeProblem, loss, method: str, config: SolverConfig,
             theta=None, *, epsilon=None, checkpoints=None) -> SensitivityResult:
    """Gradient of ``loss`` by the named method, one of ``METHODS``.

    ``config`` is the forward solver setup; the discrete adjoint needs a
    fixed-grid one.  ``epsilon`` is the perturbation of the finite-difference
    and complex-step methods (``default_epsilon`` when omitted) and is
    ignored by the others; ``checkpoints`` goes to the adjoint methods.
    ``forward_ad_primal_only`` is forward AD under the primal-only error
    norm and nothing else; it is kept to reproduce that norm's wrong
    gradients.  Raises ``ValueError`` on an unknown method name, and what
    ``core.check_request`` raises on a bad request, before any solve; every
    method checks ``checkpoints``, ``epsilon`` and ``config.saveat`` too,
    read or not, so a bad one gets the same error from all of them.
    """
    if method not in METHODS:
        raise ValueError(f"unknown gradient method {method!r}")
    problem, loss, theta = check_request(problem, loss, theta, config.saveat)
    check_checkpoints(checkpoints)
    if epsilon is not None:
        _perturbations(epsilon, theta)
    if method in ("forward_fd", "centered_fd", "complex_step"):
        eps = default_epsilon(method, theta) if epsilon is None else epsilon
        fn = solver_loss_fn(problem, loss, config)
        if method == "complex_step":
            grad = complexstep_gradient(fn, theta, eps)
        else:
            grad = fd_gradient(fn, theta, eps, scheme=method.removesuffix("_fd"))
        return SensitivityResult(
            gradient=grad,
            method=method,
            stats=fn.stats,
            metadata={"epsilon": np.asarray(eps).tolist()},
        )
    if method == "forward_ad":
        return forwardad_gradient(problem, loss, config, theta=theta)
    if method == "forward_ad_primal_only":
        config = replace(config, norm_mode=PRIMAL_ONLY)
        res = forwardad_gradient(problem, loss, config, theta=theta)
        res.method = method
        return res
    if method == "forward_sensitivity":
        return forward_sensitivity(problem, loss, config, theta=theta)
    acfg = AdjointConfig(
        variant=method.removeprefix("continuous_").removesuffix("_adjoint"),
        solver_config=config,
        checkpoints=checkpoints,
    )
    return continuous_adjoint(problem, loss, acfg, theta=theta)
