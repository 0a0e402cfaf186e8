"""Explicit Runge-Kutta integration, generic over the scalar kind.

One stepper serves plain, complex and dual states: stage algebra is
written against float or complex numpy arrays or array ``dual.MultiDual``
states, and every right-hand-side result passes through ``dual.asarray``,
which packs an object array of multiduals into one array multidual.
Adaptive runs use the embedded error estimate with a scaled norm and
elementary stepsize control (safety 0.9, step ratio clamped to [0.2, 10];
Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4); the norm can
optionally cover the tangent coordinates of dual states so that
sensitivity error is controlled alongside the primal error.  A kept mesh
holds each node's state and derivative, which ``core.dense_eval`` reads by
Hermite dense output whatever the tableau, ``saveat`` included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import OdeProblem, Solution, SolverStats, dense_eval, saved_node, span_tol
from .dual import MultiDual, asarray, norm_coordinates
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
class SolverConfig:
    """Integration settings shared by every solve."""

    method: str = "dopri5"          # euler | rk4 | dopri5
    dt: Optional[float] = None      # stepsize (fixed) or initial guess (adaptive);
                                    # solve clips it to the span
    abstol: float = 1e-6
    reltol: float = 1e-6
    max_steps: int = 1_000_000
    norm_mode: str = JOINT_PRIMAL_DUAL
    save: str = "all"               # all | final
    saveat: Optional[np.ndarray] = None

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

    Returns ``(u_next, u_embedded, k, stages)``: ``u_embedded`` is None for
    tableaus without an embedded pair, ``k`` holds the stage derivatives
    ``f(Y_i, t + c_i dt)`` and ``stages`` the stage inputs ``Y_i``, with
    ``stages[0]`` the state ``u`` itself.  ``f0`` short-circuits the first
    stage when the caller already holds ``rhs(u, theta, t)``.  Finiteness is
    checked once, on ``u_next`` and ``u_embedded``: a non-finite stage feeds
    a weighted sum or a later stage, so it reaches one of them.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    a, c = tableau.a_rows, tableau.c_row
    k = [asarray(rhs(u, theta, t + c[0] * dt)) if f0 is None else f0]
    stages = [u]
    for i in range(1, len(c)):
        ui = u
        row = a[i]
        for j in range(i):
            aij = row[j]
            if aij != 0.0:
                ui = ui + (dt * aij) * k[j]
        stages.append(ui)
        k.append(asarray(rhs(ui, theta, t + c[i] * dt)))
    u_next = _weighted_sum(u, tableau.b_row, k, dt)
    u_emb = None
    if tableau.b_hat_row is not None:
        u_emb = _weighted_sum(u, tableau.b_hat_row, k, dt)
    if not (np.isfinite(u_next).all() and (u_emb is None or np.isfinite(u_emb).all())):
        raise NumericalBlowupError(
            f"non-finite stage value at t={t!r}, dt={dt!r}", t=t, dt=dt
        )
    return u_next, u_emb, k, stages


def _weighted_sum(u, weights, k, dt):
    out = u
    for w, ki in zip(weights, k):
        if w != 0.0:
            out = out + (dt * w) * ki
    return out


def stage_rows(stages):
    """The stage inputs ``Y_2 .. Y_s`` of one step as one ``(s - 1, n)`` array.

    This is a step's entry on a stage tape: ``Y_1`` is the step's start
    node, which the tape's owner already holds.
    """
    rest = stages[1:]
    if rest and isinstance(rest[0], MultiDual):
        return np.vstack(rest)
    return np.array(rest)


def scaled_error(u, u_hat, abstol, reltol, norm_mode=JOINT_PRIMAL_DUAL) -> float:
    """Tolerance-scaled RMS difference between two state approximations.

    Each coordinate contributes ``|u_i - u_hat_i| / (abstol + reltol * M_i)``
    with ``M_i = max(|u_i|, |u_hat_i|)``; the result is the root mean square.
    In joint mode, dual states contribute their tangent coordinates as well,
    extending the sum over all ``n * (p + 1)`` value-and-tangent entries (a
    plain state paired with a dual one counts as zero tangents).
    """
    u, u_hat = asarray(u), asarray(u_hat)
    if u.shape != u_hat.shape:
        raise ValueError("state shapes differ")
    dual_state = isinstance(u, MultiDual) or isinstance(u_hat, MultiDual)
    if dual_state:
        u, u_hat = norm_coordinates(u, u_hat, norm_mode == JOINT_PRIMAL_DUAL)
    err = np.abs(u - u_hat)
    scale = abstol + reltol * np.maximum(np.abs(u), np.abs(u_hat))
    terms = (err / scale) ** 2
    if dual_state:
        # left to right, entry by entry, as the multidual error norm has always
        # summed: numpy's pairwise mean would change the step sequence's bits
        return math.sqrt(np.cumsum(terms)[-1] / terms.size)
    return float(np.sqrt(np.mean(terms)))


def propose_dt(dt_prev, w, order: int) -> float:
    """Next stepsize from the inverse scaled error ``w`` of the last step.

    The elementary controller: ``0.9 * w^(1/order)``, clamped to
    ``[0.2, 10]``, times ``dt_prev``.
    """
    if dt_prev <= 0:
        raise ValueError("dt_prev must be positive")
    return min(max(0.9 * w ** (1.0 / order), 0.2), 10.0) * dt_prev


def _keeps_mesh(config: SolverConfig) -> bool:
    return config.save == "all" or config.saveat is not None


def check_reads(problem: OdeProblem, config: SolverConfig, times) -> None:
    """Raise before any solve what ``dense_eval`` at in-span ``times`` would after it.

    A solve that keeps no mesh (``save="final"`` without ``saveat``) is read
    only at its endpoints (``saved_node``); the forward gradient methods call
    this after ``check_request``.
    """
    if not _keeps_mesh(config):
        ends = np.asarray(problem.tspan, dtype=float)
        for t in times:
            saved_node(ends, t)


def solve(problem: OdeProblem, config: SolverConfig, theta=None, u0=None,
          checkpoints=None) -> Solution:
    """Integrate a problem over its time span under the given configuration.

    ``theta``/``u0`` override the problem's nominal values, which is how
    the gradient drivers push complex or dual scalars through the solver.
    ``checkpoints`` asks for snapshots on accepted nodes near that many
    uniform spans (``checkpoint_plan``), kept in ``Solution.checkpoints``.
    A fixed-step solve that keeps its nodes also keeps their stage tape
    (``Solution.stage_tape``); one that keeps no nodes skips the end
    derivative of its last step, which nothing reads.
    """
    t0, t1 = problem.tspan
    span = t1 - t0
    theta = problem.theta if theta is None else asarray(theta)
    u = asarray(problem.u0 if u0 is None else u0)
    rhs = problem.rhs
    tableau = config.tableau
    adaptive = config.adaptive
    stats = SolverStats()

    def eval_rhs(state, th, tt):
        stats.rhs_evaluations += 1
        return rhs(state, th, tt)

    if config.saveat is not None:
        grid, tol = config.saveat, span_tol(t0, t1)
        if grid[0] < t0 - tol or grid[-1] > t1 + tol:
            raise ValueError("saveat grid extends outside the time span")

    if not adaptive and config.dt is None:
        raise ValueError(f"method {config.method!r} is fixed-step and needs dt")
    dt = config.dt if config.dt is not None else 1e-3 * span
    dt = min(dt, span)

    retain_nodes = _keeps_mesh(config)
    tape = [] if retain_nodes and not adaptive else None
    plan = None if checkpoints is None else checkpoint_plan(problem.tspan, checkpoints)
    store = None if checkpoints is None else CheckpointStore()

    f_curr = asarray(eval_rhs(u, theta, t0))
    node_times = [t0]
    node_states = [u]
    node_derivs = [f_curr]
    step_errors = []
    step_dts = []

    if store is not None:
        store.add(0, t0, u)
        next_target = 1  # plan[0] is t0, already stored

    t = t0
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
        u_next, u_emb, k, stages = rk_step(
            tableau, eval_rhs, u, theta, t, dt_attempt, f0=f_curr
        )

        if adaptive:
            err = scaled_error(u_next, u_emb, config.abstol, config.reltol, config.norm_mode)
            if not (err <= 1.0):
                stats.rejected_steps += 1
                if err > 1.0:
                    dt = propose_dt(dt_attempt, 1.0 / err, tableau.order)
                else:  # a NaN error
                    dt = 0.5 * dt_attempt
                continue
            step_errors.append(err)
            dt = propose_dt(dt_attempt, (1.0 / err) if err > 0 else math.inf, tableau.order)
        t_new = t1 if is_last else t + dt_attempt
        if tableau.fsal:
            f_next = k[-1]
        elif is_last and not retain_nodes:
            f_next = None  # no node keeps it and no step follows
        else:
            f_next = asarray(eval_rhs(u_next, theta, t_new))
        stats.accepted_steps += 1
        step_index += 1
        step_dts.append(dt_attempt)

        node_times.append(t_new)
        if retain_nodes:
            node_states.append(u_next)
            node_derivs.append(f_next)
            if tape is not None:
                tape.append(stage_rows(stages))
        if store is not None and next_target < len(plan):
            if t_new >= plan[next_target] - tiny:
                store.add(step_index, t_new, u_next)
                while next_target < len(plan) and plan[next_target] <= t_new + tiny:
                    next_target += 1

        u, f_curr, t = u_next, f_next, t_new

    if store is not None and store.times[-1] < t1 - tiny:
        store.add(step_index, t1, u)

    node_times = np.asarray(node_times)
    if retain_nodes:
        node_state_arr = np.vstack(node_states)
        node_deriv_arr = np.vstack(node_derivs)
    else:
        node_state_arr = None
        node_deriv_arr = None

    sol = Solution(
        times=node_times if config.saveat is None else config.saveat,
        states=node_state_arr if config.saveat is None else None,
        node_times=node_times,
        node_states=node_state_arr,
        node_derivs=node_deriv_arr,
        stats=stats,
        step_errors=step_errors,
        checkpoints=store,
        step_dts=np.asarray(step_dts),
        stage_tape=tape,
    )

    if config.saveat is not None:
        sol.states = np.vstack([dense_eval(sol, ti) for ti in config.saveat])
    elif config.save == "final":
        sol.times = np.array([t0, t1])
        sol.states = np.vstack([node_states[0], u])
    return sol
