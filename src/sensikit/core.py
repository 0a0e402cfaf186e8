"""Problem, loss, and solution data model shared by all gradient methods."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import dual


@dataclass(frozen=True)
class OdeProblem:
    """First-order ODE ``du/dt = f(u, theta, t)`` on a time span.

    ``rhs`` must be generic over the scalar kind of ``u`` and ``theta``:
    the same callable is used for plain, complex, and dual states.
    ``u0_jacobian`` is the n-by-p derivative of the initial state with
    respect to the parameters (zero when omitted).  Analytic Jacobians of
    the right-hand side are optional; when absent they are assembled with
    multidual seeding.
    """

    rhs: Callable
    u0: np.ndarray
    tspan: tuple[float, float]
    theta: np.ndarray
    u0_jacobian: Optional[np.ndarray] = None
    rhs_jac_u: Optional[Callable] = None   # (u, theta, t) -> n x n
    rhs_jac_theta: Optional[Callable] = None  # (u, theta, t) -> n x p

    def __post_init__(self):
        object.__setattr__(self, "u0", np.asarray(self.u0, dtype=float))
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        t0, t1 = self.tspan
        if not t1 > t0:
            raise ValueError(f"tspan must be increasing, got {self.tspan}")
        if self.u0_jacobian is not None:
            j = np.asarray(self.u0_jacobian, dtype=float)
            if j.shape != (self.n, self.p):
                raise ValueError(f"u0_jacobian must have shape {(self.n, self.p)}")
            object.__setattr__(self, "u0_jacobian", j)

    @property
    def n(self) -> int:
        return self.u0.size

    @property
    def p(self) -> int:
        return self.theta.size

    def with_theta(self, theta) -> "OdeProblem":
        theta = np.asarray(theta)
        if theta.size != self.p:
            raise ValueError(f"expected {self.p} parameters, got {theta.size}")
        return replace(self, theta=theta)

    def initial_state_jacobian(self) -> np.ndarray:
        if self.u0_jacobian is None:
            return np.zeros((self.n, self.p))
        return self.u0_jacobian


class SquaredErrorLoss:
    """Pointwise weighted squared error ``1/2 sum_i w_i ||u(t_i) - obs_i||^2``.

    Weights may be scalars (one per observation) or per-component vectors.
    """

    def __init__(self, times, targets, weights=None):
        times = np.asarray(times, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if times.ndim != 1 or len(times) != len(targets):
            raise ValueError("one target state per observation time")
        m = len(times)
        if weights is None:
            weights = np.ones(m)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim == 0:
            weights = np.full(m, float(weights))
        if weights.ndim not in (1, 2) or weights.shape[0] != m:
            raise ValueError("one weight (scalar or per-component vector) per observation")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        # entry order is immaterial to the loss; keep times sorted internally
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.targets = targets[order]
        self.weights = list(weights[order])
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("observation times must be distinct")

    def value_at(self, u, i):
        r = u - self.targets[i]
        return 0.5 * np.sum(self.weights[i] * r * r)

    def grad_u_at(self, u, i):
        return self.weights[i] * (u - self.targets[i])


class LinearStateLoss:
    """Pointwise linear functional ``sum_i w_i c_i . u(t_i)``.

    Covers final-component losses such as ``u_1(t_1)`` and saved-trajectory
    sums; ``coeffs`` holds one selector vector per observation time.
    """

    def __init__(self, times, coeffs, weights=None):
        times = np.asarray(times, dtype=float)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or len(coeffs) != len(times):
            raise ValueError("one coefficient vector per observation time")
        if weights is None:
            weights = np.ones(len(times))
        weights = np.broadcast_to(weights, (len(times),)).astype(float)
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.coeffs = coeffs[order]
        self.weights = weights[order]
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("observation times must be distinct")

    def value_at(self, u, i):
        return self.weights[i] * np.sum(self.coeffs[i] * u)

    def grad_u_at(self, u, i):
        return self.weights[i] * self.coeffs[i]


@dataclass(frozen=True)
class IntegratedLoss:
    """Integrated loss ``\\int h(u(t), theta) dt`` with supplied partials."""

    h: Callable                 # (u, theta) -> real
    dh_du: Callable             # (u, theta) -> n-vector
    dh_dtheta: Callable         # (u, theta) -> p-vector


PointwiseLoss = (SquaredErrorLoss, LinearStateLoss)


@dataclass
class SolverStats:
    """Work counters; ``jacobian_evaluations`` counts analytic Jacobian calls."""

    accepted_steps: int = 0
    rejected_steps: int = 0
    rhs_evaluations: int = 0
    jacobian_evaluations: int = 0

    def merge(self, other: "SolverStats") -> None:
        self.accepted_steps += other.accepted_steps
        self.rejected_steps += other.rejected_steps
        self.rhs_evaluations += other.rhs_evaluations
        self.jacobian_evaluations += other.jacobian_evaluations


@dataclass
class Solution:
    """Numerical trajectory plus the per-step data needed for dense output.

    ``times``/``states`` reflect the configured save policy.  ``node_*``
    arrays hold the accepted integration mesh: states and derivatives are
    retained only when the solve keeps dense data (``dense`` is then True),
    node times are always kept.
    """

    times: np.ndarray
    states: np.ndarray
    node_times: np.ndarray
    node_states: Optional[np.ndarray]
    node_derivs: Optional[np.ndarray]
    dense: bool
    stats: SolverStats
    step_errors: list = field(default_factory=list)
    checkpoints: Optional[object] = None  # CheckpointStore when requested
    step_dts: Optional[np.ndarray] = None  # exact accepted stepsizes, in order

    @property
    def t0(self):
        return self.node_times[0]

    @property
    def t1(self):
        return self.node_times[-1]

    def final_state(self):
        return self.states[-1]


@dataclass
class SensitivityResult:
    """Gradient of a loss with respect to the problem parameters."""

    gradient: np.ndarray
    method: str
    stats: SolverStats
    loss_value: Optional[float] = None
    sensitivity_trajectory: Optional[np.ndarray] = None  # (len(times), n, p)
    trajectory_times: Optional[np.ndarray] = None
    peak_stored_states: Optional[int] = None
    metadata: dict = field(default_factory=dict)


def state_at(sol: Solution, t: float):
    """State at ``t``: a stored save node when one matches, else dense output.

    Solutions without dense data (fixed-grid runs saving nodes only) require
    exact node alignment.
    """
    from .solver import dense_eval  # local import to avoid a cycle

    idx = np.searchsorted(sol.times, t)
    for j in (idx - 1, idx, idx + 1):
        if 0 <= j < len(sol.times) and _times_match(sol.times[j], t, sol.t0, sol.t1):
            return sol.states[j]
    if sol.dense:
        return dense_eval(sol, t)
    raise ValueError(
        f"time {t} is not a saved node and this solution has no dense output"
    )


def _times_match(a, b, t0, t1):
    return abs(a - b) <= 1e-9 * max(abs(t1 - t0), 1.0)


def _check_obs_in_span(loss, sol):
    if np.any(loss.times < sol.t0 - 1e-12) or np.any(loss.times > sol.t1 + 1e-12):
        raise ValueError("observation times fall outside the solution span")


def loss_eval(sol: Solution, loss, theta=None):
    """Evaluate a loss specification on a computed trajectory.

    The result has the scalar kind of the trajectory (dual trajectories
    give a dual loss).  Integrated losses take the parameter vector as
    ``theta`` and use the composite trapezoid over the saved nodes;
    gradient-grade quadrature lives in the adjoint path.
    """
    if isinstance(loss, PointwiseLoss):
        _check_obs_in_span(loss, sol)
        total = 0.0
        for i, t in enumerate(loss.times):
            total = total + loss.value_at(state_at(sol, t), i)
        return total
    if isinstance(loss, IntegratedLoss):
        vals = [loss.h(u, theta) for u in sol.states]
        return _trapezoid(vals, sol.times)
    raise TypeError(f"unknown loss specification {type(loss).__name__}")


def _trapezoid(vals, ts):
    # generic over scalar kind, unlike numpy's trapezoid
    total = 0.0
    for k in range(len(ts) - 1):
        total = total + 0.5 * (ts[k + 1] - ts[k]) * (vals[k] + vals[k + 1])
    return total


def loss_grad_u(sol: Solution, loss, t: float, theta=None) -> np.ndarray:
    """Partial derivative of the loss with respect to the state at time ``t``.

    For pointwise losses ``t`` must be an observation time; for integrated
    losses this is the integrand partial ``dh/du`` at the trajectory state.
    """
    if isinstance(loss, PointwiseLoss):
        _check_obs_in_span(loss, sol)
        matches = np.nonzero(
            np.isclose(loss.times, t, rtol=0, atol=1e-9 * max(sol.t1 - sol.t0, 1.0))
        )[0]
        if len(matches) == 0:
            raise ValueError(f"{t} is not an observation time of this loss")
        u = dual.values(state_at(sol, t))
        return sum(loss.grad_u_at(u, int(i)) for i in matches)
    if isinstance(loss, IntegratedLoss):
        u = dual.values(state_at(sol, t))
        return np.asarray(loss.dh_du(u, theta), dtype=float)
    raise TypeError(f"unknown loss specification {type(loss).__name__}")


def chain_gradient(vjp_term: np.ndarray, direct_term: np.ndarray) -> np.ndarray:
    """Total gradient ``(dL/du)(du/dtheta) + dL/dtheta`` from its two parts."""
    vjp_term = np.asarray(vjp_term, dtype=float)
    direct_term = np.asarray(direct_term, dtype=float)
    if vjp_term.shape != direct_term.shape:
        raise ValueError(
            f"gradient part shapes differ: {vjp_term.shape} vs {direct_term.shape}"
        )
    return vjp_term + direct_term


def loss_direct_gradient(loss, theta) -> np.ndarray:
    """Lump-sum direct parameter dependence ``dL/dtheta`` of a loss.

    Zero for the built-in loss kinds: data-fit losses depend on theta only
    through the trajectory, and the ``dh/dtheta`` part of integrated losses
    enters through the gradient integrand rather than as a lump.
    """
    if isinstance(loss, PointwiseLoss) or isinstance(loss, IntegratedLoss):
        return np.zeros(np.asarray(theta).size)
    raise TypeError(f"unknown loss specification {type(loss).__name__}")
