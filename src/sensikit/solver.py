"""Explicit Runge-Kutta integration, generic over the scalar kind.

One stepper serves plain, complex and dual states: stage algebra is
written against numpy arrays whose elements may be any of those scalars.
Adaptive runs use the embedded error estimate with a scaled norm
and a proportional-integral stepsize controller; the norm can optionally
cover the tangent coordinates of dual states so that sensitivity error is
controlled alongside the primal error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import OdeProblem, Solution, SolverStats
from .dual import MultiDual, tangents, value
from .errors import (
    NonConvergenceError,
    NumericalBlowupError,
    StepsizeUnderflowError,
)
from .tableaus import TABLEAUS, ButcherTableau

PRIMAL_ONLY = "primal_only"
JOINT_PRIMAL_DUAL = "joint_primal_dual"

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class StepController:
    """PI stepsize controller: growth factor from recent inverse errors.

    The factor is ``safety * w_m^(b1/q) * w_(m-1)^(b2/q) * w_(m-2)^(b3/q)``
    clamped to ``[eta_min, eta_max]``, with ``w`` the inverse scaled errors
    and ``q`` the solver order.  Defaults give the elementary controller.
    """

    beta1: float = 1.0
    beta2: float = 0.0
    beta3: float = 0.0
    eta_min: float = 0.2
    eta_max: float = 10.0
    safety: float = 0.9

    def __post_init__(self):
        if not self.eta_min < 1.0 < self.eta_max:
            raise ValueError("controller clamp must satisfy eta_min < 1 < eta_max")


@dataclass(frozen=True)
class SolverConfig:
    """Integration settings shared by every solve."""

    method: str = "dopri5"          # euler | rk4 | dopri5
    dt: Optional[float] = None      # stepsize (fixed) or initial guess (adaptive)
    abstol: float = 1e-6
    reltol: float = 1e-6
    max_steps: int = 1_000_000
    controller: StepController = field(default_factory=StepController)
    norm_mode: str = JOINT_PRIMAL_DUAL
    save: str = "all"               # all | final
    saveat: Optional[np.ndarray] = None
    checkpoints: Optional[int] = None

    def __post_init__(self):
        if self.method not in TABLEAUS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.abstol <= 0 or self.reltol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.norm_mode not in (PRIMAL_ONLY, JOINT_PRIMAL_DUAL):
            raise ValueError(f"unknown norm mode {self.norm_mode!r}")
        if self.save not in ("all", "final"):
            raise ValueError(f"unknown save policy {self.save!r}")
        if self.saveat is not None:
            grid = np.asarray(self.saveat, dtype=float)
            if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0):
                raise ValueError("saveat grid must be 1-D and strictly increasing")
            object.__setattr__(self, "saveat", grid)
        if self.checkpoints is not None and self.checkpoints < 1:
            raise ValueError("checkpoint count must be at least 1")

    @property
    def tableau(self) -> ButcherTableau:
        return TABLEAUS[self.method]

    @property
    def adaptive(self) -> bool:
        return self.tableau.is_embedded


@dataclass
class CheckpointStore:
    """Forward-state snapshots taken at (approximately) planned times.

    Snapshots sit on accepted integration nodes, so replaying the recorded
    stepsizes from a snapshot reproduces the original trajectory bitwise.
    """

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    node_indices: list = field(default_factory=list)

    def add(self, index, t, u):
        self.node_indices.append(index)
        self.times.append(t)
        self.states.append(u)

    def __len__(self):
        return len(self.times)


def checkpoint_plan(tspan, count: int) -> np.ndarray:
    """``count + 1`` uniformly spaced snapshot times including both endpoints."""
    if count < 1:
        raise ValueError("checkpoint count must be at least 1")
    t0, t1 = tspan
    return np.linspace(t0, t1, count + 1)


def rk_step(tableau, rhs, u, theta, t, dt, f0=None):
    """One explicit Runge-Kutta step from ``(t, u)`` with stepsize ``dt``.

    Returns ``(u_next, u_embedded, stages)``; ``u_embedded`` is None for
    tableaus without an embedded pair.  ``f0`` short-circuits the first
    stage when the caller already holds ``rhs(u, theta, t)``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    a, b, c = tableau.a, tableau.b, tableau.c
    s = tableau.stages
    k = [None] * s
    for i in range(s):
        if i == 0 and f0 is not None:
            k[0] = f0
        else:
            ui = u
            for j in range(i):
                aij = a[i, j]
                if aij != 0.0:
                    ui = ui + (dt * aij) * k[j]
            k[i] = np.asarray(rhs(ui, theta, t + c[i] * dt))
        if not _values_finite(k[i]):
            raise NumericalBlowupError(
                f"non-finite stage value at t={t!r}, dt={dt!r}", t=t, dt=dt
            )
    u_next = u
    for i in range(s):
        if b[i] != 0.0:
            u_next = u_next + (dt * b[i]) * k[i]
    u_emb = None
    if tableau.b_hat is not None:
        u_emb = u
        for i in range(s):
            if tableau.b_hat[i] != 0.0:
                u_emb = u_emb + (dt * tableau.b_hat[i]) * k[i]
    return u_next, u_emb, k


def _values_finite(state) -> bool:
    state = np.asarray(state)
    if state.dtype == object:
        # a generator stops at the first non-finite entry and builds no array
        return all(math.isfinite(value(x)) for x in state.flat)
    return bool(np.all(np.isfinite(state)))


def _error_coordinates(x, x_hat, joint):
    """Pairs of (delta, magnitude-scale) floats for one state entry.

    The entry adds its tangent coordinates in joint mode only when either
    side is dual; the plain side then counts as having zero tangents.
    """
    if not (isinstance(x, MultiDual) or isinstance(x_hat, MultiDual)):
        return [(abs(x - x_hat), max(abs(x), abs(x_hat)))]
    xv, hv = value(x), value(x_hat)
    out = [(abs(xv - hv), max(abs(xv), abs(hv)))]
    if joint:
        arity = (x if isinstance(x, MultiDual) else x_hat).arity
        xt, ht = tangents(x, arity), tangents(x_hat, arity)
        out.extend(zip(np.abs(xt - ht), np.maximum(np.abs(xt), np.abs(ht))))
    return out


def scaled_error(u, u_hat, abstol, reltol, norm_mode=PRIMAL_ONLY) -> float:
    """Tolerance-scaled RMS difference between two state approximations.

    Each coordinate contributes ``|u_i - u_hat_i| / (abstol + reltol * M_i)``
    with ``M_i = max(|u_i|, |u_hat_i|)``; the result is the root mean square.
    In joint mode, dual states contribute their tangent coordinates as well,
    extending the sum over all ``n * (p + 1)`` value-and-tangent entries.
    """
    u = np.asarray(u)
    u_hat = np.asarray(u_hat)
    if u.shape != u_hat.shape:
        raise ValueError("state shapes differ")
    joint = norm_mode == JOINT_PRIMAL_DUAL
    if u.dtype == object or u_hat.dtype == object:
        total = 0.0
        count = 0
        for x, xh in zip(u.ravel(), u_hat.ravel()):
            for d, m in _error_coordinates(x, xh, joint):
                total += (d / (abstol + reltol * m)) ** 2
                count += 1
        return math.sqrt(total / count)
    err = np.abs(u - u_hat)
    scale = abstol + reltol * np.maximum(np.abs(u), np.abs(u_hat))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def propose_dt(dt_prev, w_history, controller: StepController, order: int) -> float:
    """Next stepsize from the PI controller and recent inverse errors.

    ``w_history`` lists the most recent inverse scaled errors, newest
    first; missing entries default to 1.
    """
    if dt_prev <= 0:
        raise ValueError("dt_prev must be positive")
    ws = tuple(w_history) + (1.0, 1.0, 1.0)
    q = float(order)
    eta = controller.safety
    for w, beta in zip(ws[:3], (controller.beta1, controller.beta2, controller.beta3)):
        if beta != 0.0:
            eta *= w ** (beta / q)
    eta = min(max(eta, controller.eta_min), controller.eta_max)
    return eta * dt_prev


def solve(problem: OdeProblem, config: SolverConfig, theta=None, u0=None) -> Solution:
    """Integrate a problem over its time span under the given configuration.

    ``theta``/``u0`` override the problem's nominal values, which is how
    the gradient drivers push complex or dual scalars through the solver.
    """
    t0, t1 = problem.tspan
    span = t1 - t0
    theta = problem.theta if theta is None else np.asarray(theta)
    u = np.asarray(problem.u0 if u0 is None else u0)
    rhs = problem.rhs
    tableau = config.tableau
    adaptive = config.adaptive
    stats = SolverStats()

    def eval_rhs(state, th, tt):
        stats.rhs_evaluations += 1
        return np.asarray(rhs(state, th, tt))

    if config.saveat is not None:
        grid = config.saveat
        if grid[0] < t0 - 1e-12 * max(abs(span), 1.0) or grid[-1] > t1 + 1e-12 * max(abs(span), 1.0):
            raise ValueError("saveat grid extends outside the time span")

    if not adaptive and config.dt is None:
        raise ValueError(f"method {config.method!r} is fixed-step and needs dt")
    dt = config.dt if config.dt is not None else 1e-3 * span
    dt = min(dt, span)

    retain_nodes = config.save == "all" or config.saveat is not None
    keep_checkpoints = config.checkpoints is not None
    store = None
    plan = None
    if keep_checkpoints:
        plan = checkpoint_plan(problem.tspan, config.checkpoints)
        store = CheckpointStore()

    f_curr = eval_rhs(u, theta, t0)
    node_times = [t0]
    node_states = [u]
    node_derivs = [f_curr]
    step_errors = []
    step_dts = []

    if store is not None:
        store.add(0, t0, u)
        next_target = 1  # plan[0] is t0, already stored

    t = t0
    w_hist: tuple = ()
    attempts = 0
    step_index = 0
    tiny = 1e-12 * max(abs(span), 1.0)

    while t < t1 - tiny:
        if attempts >= config.max_steps:
            raise NonConvergenceError(
                f"exceeded {config.max_steps} step attempts at t={t!r}"
            )
        if dt < 1e3 * _EPS * max(abs(t), abs(t1)):
            raise StepsizeUnderflowError(f"stepsize underflow: dt={dt!r} at t={t!r}")
        is_last = t + dt >= t1 - tiny
        dt_attempt = t1 - t if is_last else dt
        attempts += 1
        u_next, u_emb, k = rk_step(tableau, eval_rhs, u, theta, t, dt_attempt, f0=f_curr)

        if adaptive:
            err = scaled_error(u_next, u_emb, config.abstol, config.reltol, config.norm_mode)
            if not (err <= 1.0):
                stats.rejected_steps += 1
                w_fail = (1.0 / err) if err > 0 else math.inf
                dt_new = propose_dt(dt_attempt, (w_fail,) + w_hist, config.controller, tableau.order)
                # a pathological controller must still shrink on rejection
                dt = dt_new if dt_new < dt_attempt else 0.5 * dt_attempt
                continue
            w = (1.0 / err) if err > 0 else math.inf
            step_errors.append(err)
        t_new = t1 if is_last else t + dt_attempt
        f_next = k[-1] if tableau.fsal else eval_rhs(u_next, theta, t_new)
        stats.accepted_steps += 1
        step_index += 1
        step_dts.append(dt_attempt)

        node_times.append(t_new)
        if retain_nodes:
            node_states.append(u_next)
            node_derivs.append(f_next)
        if store is not None and next_target < len(plan):
            if t_new >= plan[next_target] - tiny:
                store.add(step_index, t_new, u_next)
                while next_target < len(plan) and plan[next_target] <= t_new + tiny:
                    next_target += 1

        u, f_curr, t = u_next, f_next, t_new
        if adaptive:
            w_hist = ((w,) + w_hist)[:3]
            dt = propose_dt(dt_attempt, w_hist, config.controller, tableau.order)

    if store is not None and store.times[-1] < t1 - tiny:
        store.add(step_index, t1, u)

    node_times = np.asarray(node_times)
    dense = retain_nodes
    if retain_nodes:
        node_state_arr = _stack(node_states)
        node_deriv_arr = _stack(node_derivs)
    else:
        node_state_arr = None
        node_deriv_arr = None

    sol = Solution(
        times=node_times if config.saveat is None else config.saveat,
        states=node_state_arr if config.saveat is None else None,
        node_times=node_times,
        node_states=node_state_arr,
        node_derivs=node_deriv_arr,
        dense=dense and tableau.is_embedded,
        stats=stats,
        step_errors=step_errors,
        checkpoints=store,
        step_dts=np.asarray(step_dts),
    )

    if config.saveat is not None:
        sol.states = _stack([_state_on_mesh(sol, ti, tableau) for ti in config.saveat])
    elif config.save == "final":
        sol.times = np.array([t0, t1])
        sol.states = _stack([np.asarray(problem.u0 if u0 is None else u0), u])
    return sol


def _stack(states):
    arr = np.vstack([np.asarray(s) for s in states])
    return arr


def _state_on_mesh(sol, t, tableau):
    """Mesh state at ``t``: exact node when aligned, else Hermite interpolant.

    Fixed-grid methods do not interpolate; a save time off the mesh is an
    error there.
    """
    idx = _node_match(sol.node_times, t)
    if idx is not None:
        return sol.node_states[idx]
    if not tableau.is_embedded:
        raise ValueError(
            f"save time {t} is not a step node; fixed-grid methods require "
            f"exact node alignment"
        )
    return dense_eval(sol, t)


def _node_match(ts, t):
    idx = np.searchsorted(ts, t)
    tol = 1e-9 * max(abs(ts[-1] - ts[0]), 1.0)
    for j in (idx - 1, idx, idx + 1):
        if 0 <= j < len(ts) and abs(ts[j] - t) <= tol:
            return j
    return None


def dense_eval(sol: Solution, t: float):
    """Cubic-Hermite evaluation of the stored mesh at an interior time.

    Uses the bracketing step's endpoint states and derivatives; exact at
    the mesh nodes.
    """
    if sol.node_states is None:
        raise ValueError("this solution retained no dense data")
    ts = sol.node_times
    if t < ts[0] - 1e-12 or t > ts[-1] + 1e-12:
        raise ValueError(f"time {t} outside solution span [{ts[0]}, {ts[-1]}]")
    idx = _node_match(ts, t)
    if idx is not None:
        return sol.node_states[idx]
    j = int(np.searchsorted(ts, t)) - 1
    j = min(max(j, 0), len(ts) - 2)
    ta, tb = ts[j], ts[j + 1]
    h = tb - ta
    s = (t - ta) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return (
        h00 * sol.node_states[j]
        + (h10 * h) * sol.node_derivs[j]
        + h01 * sol.node_states[j + 1]
        + (h11 * h) * sol.node_derivs[j + 1]
    )
