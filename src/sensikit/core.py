"""Problem, loss, and solution data model shared by all gradient methods.

It also holds the one rule for placing a time on a trajectory, which the
solver and the adjoints import: a time within ``span_tol`` of an end of
the step holding it sits on that end, the left one first (``_step_end``),
and ``_locate`` places every scalar read on a cached mesh; the one dense output
off the nodes, a step's Hermite rows built by ``_hermite_rows`` and read by
``_horner``; the one RHS counter, ``_counted``; and the one check of a
gradient request, ``check_request``, which every gradient method calls
before any solve and which turns an integrated loss into a pointwise one
on an extended problem.  ``loss_eval`` values pointwise losses only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .dual import asarray


@dataclass(frozen=True)
class OdeProblem:
    """First-order ODE ``du/dt = f(u, theta, t)`` on a time span.

    ``rhs`` must be generic over the scalar kind of ``u`` and ``theta``:
    the same callable is used for plain, complex, and dual states.  A dual
    state or parameter vector is an array ``dual.MultiDual``; on it ``rhs``
    may use arithmetic with numbers, float arrays and other duals, negation,
    ``float_matrix @ u``, indexing (an integer gives a scalar multidual),
    ``len``/iteration, ``np.concatenate``, ``np.sum``, ``np.sin``/``cos``/
    ``exp``/``log``/``sqrt``, and may return ``np.array([...])`` of scalar
    entries; it may not write into its arguments or build arrays with
    ``np.zeros_like``/``np.empty_like`` and fill them.
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
        object.__setattr__(self, "u0", _real(self.u0, "u0"))
        object.__setattr__(self, "theta", _real(self.theta, "theta"))
        for name in ("u0", "theta"):  # any other shape fails inside each method its own way
            if getattr(self, name).ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {getattr(self, name).shape}")
        if np.shape(self.tspan) != (2,):
            raise ValueError(f"tspan must be two ends (t0, t1), got {self.tspan}")
        t0, t1 = self.tspan
        if not np.isfinite(self.tspan).all():  # an infinite end has no mesh to step
            raise ValueError(f"tspan must be finite, got {self.tspan}")
        if not t1 > t0:
            raise ValueError(f"tspan must be increasing, got {self.tspan}")
        if not np.isfinite(self.u0).all():
            raise ValueError(f"u0 must be finite, got {self.u0}")
        if self.u0_jacobian is not None:
            j = _real(self.u0_jacobian, "u0_jacobian")
            if j.shape != (self.n, self.p):
                raise ValueError(f"u0_jacobian must have shape {(self.n, self.p)}")
            if not np.isfinite(j).all():
                raise ValueError("u0_jacobian must be finite")
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


def _real(x, name):
    """Input ``name`` as a float array; a complex one, whose imaginary part float() drops, raises."""
    if np.iscomplexobj(x):
        raise TypeError(f"{name} must be real, got complex values {np.asarray(x)}")
    return np.asarray(x, dtype=float)


def _observations(times, values, weights, values_ok, values_error, vector_weights, name):
    """Checked float times, values (the loss's ``name``) and weights of a pointwise loss.

    ``values_ok(times, values)`` holds when there is one value per time.
    Weights default to ones; a scalar applies to every time, and
    ``vector_weights`` also admits one per-component vector per time.
    """
    times = np.asarray(times, dtype=float)
    values = _real(values, name)
    if not values_ok(times, values):
        raise ValueError(values_error)
    if not np.isfinite(times).all():  # NaN compares false, so no later check refuses it
        raise ValueError("observation times must be finite")
    m = len(times)
    if m == 0:  # it would have no gradient to compute
        raise ValueError("a pointwise loss needs at least one observation time")
    weights = _real(np.ones(m) if weights is None else weights, "weights")
    if weights.ndim == 0:
        weights = np.full(m, weights)
    elif weights.ndim > (2 if vector_weights else 1) or weights.shape[0] != m:
        raise ValueError("one weight (scalar or per-component vector) per observation"
                         if vector_weights else "one scalar weight per observation")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if not np.isfinite(weights).all():  # NaN passes the check above
        raise ValueError("weights must be finite")
    order = np.argsort(times, kind="stable")
    times = times[order]
    if np.any(np.diff(times) <= 0):
        raise ValueError("observation times must be distinct")
    return times, values[order], weights[order]


class SquaredErrorLoss:
    """Pointwise weighted squared error ``1/2 sum_i w_i ||u(t_i) - obs_i||^2``.

    Weights may be scalars (one per observation) or per-component vectors.
    """

    def __init__(self, times, targets, weights=None):
        self.times, self.targets, weights = _observations(
            times, targets, weights, lambda t, v: t.ndim == 1 and len(t) == len(v),
            "one target state per observation time", vector_weights=True, name="targets")
        self.weights = list(weights)

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
        self.times, self.coeffs, self.weights = _observations(
            times, coeffs, weights, lambda t, v: v.ndim == 2 and len(v) == len(t),
            "one coefficient vector per observation time", vector_weights=False,
            name="coefficients")

    def value_at(self, u, i):
        return self.weights[i] * np.sum(self.coeffs[i] * u)

    def grad_u_at(self, u, i):
        return self.weights[i] * self.coeffs[i]


@dataclass(frozen=True)
class IntegratedLoss:
    """Integrated loss ``\\int h(u(t), theta) dt`` with supplied partials.

    ``h`` returns a scalar and, like ``OdeProblem.rhs``, must be generic
    over the scalar kind.  A gradient request takes the integral as the
    final value of an extra state ``q`` (see ``check_request``), so for it
    ``lambda0``, ``sensitivity_trajectory`` and ``u0_recovered`` carry one
    extra row, for ``q``.
    """

    h: Callable                 # (u, theta) -> scalar
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


def _counted(problem: OdeProblem, stats: SolverStats) -> OdeProblem:
    """The problem with its RHS and analytic Jacobian calls counted in ``stats``."""
    rhs = problem.rhs

    def counted_rhs(u, theta, t):
        stats.rhs_evaluations += 1
        return rhs(u, theta, t)

    def counted_jac(jac):
        if jac is None:
            return None

        def counted(u, theta, t):
            stats.jacobian_evaluations += 1
            return jac(u, theta, t)

        return counted

    return replace(
        problem,
        rhs=counted_rhs,
        rhs_jac_u=counted_jac(problem.rhs_jac_u),
        rhs_jac_theta=counted_jac(problem.rhs_jac_theta),
    )


@dataclass
class Solution:
    """Numerical trajectory plus the per-step data needed for dense output.

    ``times``/``states`` are the mesh, or its dense output at ``saveat``;
    ``node_*`` arrays hold the accepted mesh, which ``dense_eval`` reads by
    its ``dense_rows``, whatever the tableau; ``solve`` keeps all of them.  An
    adjoint forward pass keeping only its end states has node times alone
    (node states and derivatives None) and, checkpointed, its snapshots as
    ``checkpoints``: ``{i: node i's state}`` from node 0 to the last, in
    order.  Backsolve's keeps its observation rows, then ``t1``'s, as
    ``times``/``states``.  The discrete adjoint's forward pass and replays
    keep their stage tape: ``stage_tape[m]`` holds the stage inputs ``Y_2
    .. Y_s`` of step ``m`` as one ``(s - 1, n)`` array (``Y_1`` is node
    ``m``), a copy of those rows of the block ``solver.rk_step`` built
    them in; no kept row is a view of that block.  ``step_errors`` holds an
    adaptive run's scaled error per accepted step: with ``step_dts``, it
    gives an adjoint's reverse pass the controller's last proposals.
    """

    times: np.ndarray
    states: np.ndarray
    node_times: np.ndarray
    node_states: Optional[np.ndarray]
    node_derivs: Optional[np.ndarray]
    stats: SolverStats
    step_errors: list = field(default_factory=list)  # Python floats, one per accepted step
    checkpoints: Optional[dict] = None  # node index -> snapshot state, when checkpointed
    step_dts: Optional[np.ndarray] = None  # exact accepted stepsizes, in order
    stage_tape: Optional[list] = None  # per step, its stage inputs after the first

    def final_state(self):
        return self.states[-1]

    @cached_property
    def dense_rows(self):
        """``dense_rows[m]``: step m's ``_hermite_rows`` tuple, built from the nodes when read."""
        ys, fs, h = self.node_states, self.node_derivs, np.diff(self.node_times)[:, None]
        return list(zip(*_hermite_rows(ys[:-1], fs[:-1], ys[1:], fs[1:], h)))

    @cached_property
    def _mesh(self):
        """``(nodes, tol)``: the node times as floats and their ``span_tol``, on first read."""
        nodes = self.node_times.tolist()
        return nodes, span_tol(nodes[0], nodes[-1])


@dataclass
class SensitivityResult:
    """Gradient of a loss with respect to the problem parameters."""

    gradient: np.ndarray
    method: str
    stats: SolverStats
    sensitivity_trajectory: Optional[np.ndarray] = None  # (len(times), n, p)
    trajectory_times: Optional[np.ndarray] = None
    peak_stored_states: Optional[int] = None
    metadata: dict = field(default_factory=dict)


def span_tol(t0, t1) -> float:
    """How far outside ``[t0, t1]`` a time counts as in it, and off a node as on it."""
    return 1e-9 * max(abs(t1 - t0), 1.0)


def check_saveat(saveat, tspan) -> None:
    """Refuse a ``saveat`` grid reaching outside ``tspan`` by more than ``span_tol``."""
    tol = span_tol(*tspan)
    if saveat is not None and (saveat[0] < tspan[0] - tol or saveat[-1] > tspan[1] + tol):
        raise ValueError("saveat grid extends outside the time span")


def check_request(problem: OdeProblem, loss, theta=None, saveat=None):
    """The request ``(problem, loss, theta)`` a gradient method runs, once checked.

    ``theta`` defaults to ``problem.theta`` and must be real and finite, of
    shape ``(p,)``, ``p >= 1``; a ``saveat`` grid in the span (``check_saveat``);
    the loss must be pointwise, with observation times in the span up to
    ``span_tol`` and targets, per-component weights and coefficients of
    shape ``(m, n)``, or integrated.  A pointwise request comes back as
    given.  An integrated loss comes back as the pointwise loss ``q(t1)`` on
    ``running_integral(problem, loss)``, so every method differentiates
    observations only.  Every gradient method calls this before any solve;
    every public solve keeps its mesh, so any in-span time can be read.
    """
    theta = problem.theta if theta is None else _real(theta, "theta")
    if theta.shape != (problem.p,):
        raise ValueError(f"theta must have shape {(problem.p,)}, got {theta.shape}")
    if theta.size == 0:
        raise ValueError("the problem has no parameters: there is no gradient to compute")
    if not np.isfinite(theta).all():
        raise ValueError(f"theta must be finite, got {theta}")
    check_saveat(saveat, problem.tspan)
    if isinstance(loss, IntegratedLoss):
        problem = running_integral(problem, loss)
        return problem, LinearStateLoss([problem.tspan[1]], np.eye(problem.n)[-1:]), theta
    if not isinstance(loss, PointwiseLoss):
        raise TypeError(f"unknown loss specification {type(loss).__name__}")
    t0, t1 = problem.tspan
    tol = span_tol(t0, t1)
    if np.any(loss.times < t0 - tol) or np.any(loss.times > t1 + tol):
        raise ValueError(f"observation times fall outside the time span {problem.tspan}")
    if isinstance(loss, SquaredErrorLoss):  # scalar weights stay one per observation time
        weights = np.asarray(loss.weights)
        rows = {"targets": loss.targets, **({"weights": weights} if weights.ndim > 1 else {})}
    else:
        rows = {"coefficients": loss.coeffs}
    shape = (len(loss.times), problem.n)
    for name, a in rows.items():
        if a.shape != shape:
            raise ValueError(f"loss {name} must have shape {shape}, one {problem.n}-entry row "
                             f"per observation time, got {a.shape}")
    return problem, loss, theta


def running_integral(problem: OdeProblem, loss: IntegratedLoss) -> OdeProblem:
    """The problem extended by a last state ``q' = h(u, theta)``, ``q(t0) = 0``.

    Analytic Jacobians gain the rows ``dh/du`` and ``dh/dtheta`` (nothing
    depends on ``q``); a missing one is assembled from the extended RHS.
    """
    n, p = problem.n, problem.p
    rhs, jac_u, jac_theta = problem.rhs, problem.rhs_jac_u, problem.rhs_jac_theta

    def extended_rhs(z, theta, t):
        u = z[:n]
        return np.concatenate([asarray(rhs(u, theta, t)), asarray([loss.h(u, theta)])])

    def extended_jac_u(z, theta, t):
        u = z[:n]
        return np.pad(np.vstack([jac_u(u, theta, t), loss.dh_du(u, theta)]), ((0, 0), (0, 1)))

    def extended_jac_theta(z, theta, t):
        u = z[:n]
        return np.vstack([jac_theta(u, theta, t), loss.dh_dtheta(u, theta)])

    J0 = problem.u0_jacobian
    return OdeProblem(
        rhs=extended_rhs,
        u0=np.append(problem.u0, 0.0),
        tspan=problem.tspan,
        theta=problem.theta,
        u0_jacobian=None if J0 is None else np.vstack([J0, np.zeros(p)]),
        rhs_jac_u=None if jac_u is None else extended_jac_u,
        rhs_jac_theta=None if jac_theta is None else extended_jac_theta,
    )


def dense_eval(sol: Solution, t):
    """State at ``t``: the one trajectory lookup of ``solve`` and the gradients.

    One bisection over the whole mesh, whatever its tableau, finds
    the step holding ``t`` (the first or last step for a time outside the
    mesh within ``span_tol``; one further outside, or NaN, raises).  An end
    within ``span_tol``, the left one first (``_step_end``), gives its state
    bitwise, else ``_horner`` evaluates the step's Hermite rows.  So a read
    may fall in any step: interpolating and quadrature read the stage times
    of their reverse steps, across many forward steps, through it.  A
    scalar ``t`` reads ``sol.dense_rows`` at ``_locate``'s step of the mesh
    cached on ``sol`` (``Solution._mesh``); a 1-D array or list builds the
    rows of the steps it reads only, a row per time with a scalar read's
    bits, and no times read a ``(0, n)`` block.
    """
    if type(t) is not float and (isinstance(t, (list, tuple)) or getattr(t, "ndim", 0)):
        ts, ys, fs = sol.node_times, sol.node_states, sol.node_derivs
        t, tol = _read_times(ts, t)
        if len(ts) < 2:  # a solve that took no step: its one node is every read
            return np.repeat(ys, len(t), axis=0)
        j = ts[1:-1].searchsorted(t)  # the scalar bracket
        t, ta, tb = t[:, None], ts[j, None], ts[j + 1, None]
        ya, yb, off, h = ys[j], ys[j + 1], t - ta, tb - ta
        read = _horner(_hermite_rows(ya, fs[j], yb, fs[j + 1], h), off / h)
        return np.where(off <= tol, ya, np.where(tb - t <= tol, yb, read))
    nodes, tol = sol._mesh
    step, end, s = _locate(nodes, float(t), tol)  # a float: numpy's bits, none of its overhead
    return sol.node_states[step + end] if s is None else _horner(sol.dense_rows[step], s)


def _read_times(ts, t):
    """``(t, tol)``: the times of an array read on the mesh ``ts``, checked, as a 1-D float
    array, and its ``span_tol``; one more than ``tol`` outside the mesh, or NaN, raises."""
    tol = span_tol(ts[0], ts[-1])
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"dense_eval reads a time or 1-D times, got shape {t.shape}")
    if t.size and not (ts[0] - tol <= t.min() and t.max() <= ts[-1] + tol):  # NaN fails too
        raise ValueError(f"times {t} outside solution span [{ts[0]}, {ts[-1]}]")
    return t, tol


def _step_end(ta, tb, t, tol):
    """The read rule: the end of step [ta, tb] within ``tol`` of ``t``, 0 first, or None."""
    return 0 if t - ta <= tol else 1 if tb - t <= tol else None


def _locate(ts, t, tol):
    """``(step, end, s)``: the step ``[ta, tb]`` of sorted ``ts`` holding ``t``, clamped to the
    first or last; ``_step_end``'s end of it, the node a read returns, or None; with no end,
    ``s = (t - ta) / (tb - ta)``, else None.  One more than ``tol`` outside or NaN raises."""
    if not ts[0] - tol <= t <= ts[-1] + tol:
        raise ValueError(f"time {t} outside solution span [{ts[0]}, {ts[-1]}]")
    step = min(max(bisect_left(ts, t) - 1, 0), len(ts) - 2)
    ta, tb = float(ts[step]), float(ts[step + 1])
    end = _step_end(ta, tb, t, tol)
    return step, end, None if end is not None else (t - ta) / (tb - ta)


def _hermite_rows(ua, fa, ub, fb, h):
    """Power-basis rows ``(c0, c1, c2, c3)`` in ``s = (t - ta) / h`` of the cubic Hermite
    of a step of length ``h`` whose ends hold states ``ua``, ``ub`` and derivatives ``fa``,
    ``fb``, elementwise over any leading axes (``h`` broadcast against them)."""
    d, ha, hb = ub - ua, h * fa, h * fb
    return ua, ha, 3 * d - 2 * ha - hb, ha + hb - 2 * d


def _horner(rows, s):
    """``c0 + s (c1 + s (c2 + s c3))`` of ``rows``: elementwise ufuncs, no BLAS."""
    c0, c1, c2, c3 = rows
    return c0 + s * (c1 + s * (c2 + s * c3))


def loss_eval(sol: Solution, loss):
    """Value of a pointwise loss on a computed trajectory, read by one ``dense_eval``.

    The result has the scalar kind of the trajectory, float or complex
    (complex step differentiates through it; forward AD evaluates the loss
    terms on multiduals itself).  An integrated loss raises ``TypeError``:
    its value is the last final-state component of the solved
    ``running_integral(problem, loss)``, which every gradient differentiates.
    """
    if isinstance(loss, IntegratedLoss):
        raise TypeError("loss_eval reads pointwise losses only; an IntegratedLoss is "
                        "the last final-state component of core.running_integral(problem, loss)")
    if not isinstance(loss, PointwiseLoss):
        raise TypeError(f"unknown loss specification {type(loss).__name__}")
    total = 0.0
    for i, u in enumerate(dense_eval(sol, loss.times)):
        total = total + loss.value_at(u, i)
    return total
