"""Explicit Runge-Kutta integration of float and complex states.

``solve`` and ``rk_step`` refuse dual states: forward AD integrates the
packed float state ``(u, S)`` of ``sensitivity._forward_mode``.  A step
builds its stage inputs, its result and its error estimate as the rows of
one array, one array operation per stage (Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.1); each row sums its products in the order of the
tableau's columns, so it has the bits of a sum over the tableau's entries.
Adaptive runs use the embedded error estimate with a scaled norm and
elementary stepsize control (safety 0.9, step ratio clamped to [0.2, 10];
Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4).  A solve keeps its
mesh, each node's state and derivative, which ``core.dense_eval`` reads
by Hermite dense output whatever the tableau; ``saveat`` rows have its
bits (its read rule and step rows), taken as the loop steps past each time.

One marching loop, ``_march``, takes every step: those of ``solve``, of
the forward-mode engine's packed ``(u, S)`` solve, of the adjoint forward
pass, of a checkpoint segment's replay and of each adjoint's reverse pass.
Its steps come from the controller or a grid known before the first step,
a fixed ``dt``'s or an earlier run's; one setting, ``keep``, says what it
keeps: every node for ``solve`` and the engine (under the engine's error
norm, ``norm_n``), less for the adjoint forward pass (the node times and
end states, with checkpoint snapshots by node index) or more (the stage
tape).  A kept node, ``saveat`` row, checkpoint or stage-tape entry is a
copy of its step's rows, so none holds a step's block.  A run may end
steps at stops and jump there: an adjoint's reverse pass does, at its
observations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import Optional

import numpy as np

# dense_eval is also named here: the benchmark's tracer looks up the
# dense-output layer as sensikit.solver.dense_eval
from .core import (OdeProblem, Solution, SolverStats, _counted, _hermite_rows,  # noqa: F401
                   _horner, _step_end, check_saveat, dense_eval, span_tol)
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
    norm_mode: str = JOINT_PRIMAL_DUAL  # forward AD's error norm
    saveat: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.method not in TABLEAUS:
            raise ValueError(f"unknown method {self.method!r}")
        # NaN fails these (the tolerances' second); an infinite dt is one attempt per span
        if self.abstol <= 0 or self.reltol <= 0:
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.abstol) and math.isfinite(self.reltol)):
            raise ValueError(f"tolerances must be finite, got abstol={self.abstol!r}, "
                             f"reltol={self.reltol!r}")
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, Integral):
            raise ValueError(f"max_steps must be an integer, got {self.max_steps!r}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.dt is None and not TABLEAUS[self.method].is_embedded:
            raise ValueError(f"method {self.method!r} is fixed-step and needs dt")
        if self.norm_mode not in (PRIMAL_ONLY, JOINT_PRIMAL_DUAL):
            raise ValueError(f"unknown norm mode {self.norm_mode!r}")
        if self.saveat is not None:
            grid = np.asarray(self.saveat, dtype=float)
            if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0):
                raise ValueError("saveat grid must be 1-D and strictly increasing")
            if not np.isfinite(grid).all():
                raise ValueError("saveat times must be finite")
            object.__setattr__(self, "saveat", grid)

    @property
    def tableau(self) -> ButcherTableau:
        return TABLEAUS[self.method]

    @property
    def adaptive(self) -> bool:
        return self.tableau.is_embedded


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
    stage when the caller already holds ``rhs(u, theta, t)``.  The stage
    inputs and results are the rows of one block, one per row of
    ``tableau.step_rows``, each stage derivative added to every later row
    at once (a zero coefficient adds a signed zero); ``u_next``,
    ``u_embedded`` and ``stages`` are views of it, which a caller keeping
    one copies.  Finiteness is checked once, on the result rows: a
    non-finite stage feeds a later row, so it reaches one of them.  A
    multidual ``u`` or ``theta`` raises ``TypeError`` before any
    right-hand-side call.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    _refuse_duals("rk_step", u, theta)
    c, s = tableau.c, tableau.stages
    dE = dt * tableau.step_rows
    k = [np.asarray(rhs(u, theta, t + c[0] * dt)) if f0 is None else f0]
    U = u + dE[:, 0, None] * k[0]
    for i in range(1, s):
        k.append(np.asarray(rhs(U[i], theta, t + c[i] * dt)))
        later = U[i + 1:]  # += on a name: no write back through U's __setitem__
        later += dE[i + 1:, i, None] * k[i]
    first = s - 1 if tableau.fsal else s  # the row of u_next
    if not np.isfinite(U[first:]).all():
        raise NumericalBlowupError(
            f"non-finite stage value at t={t!r}, dt={dt!r}", t=t, dt=dt
        )
    return U[first], (None if tableau.b_hat is None else U[-1]), k, U[:s]


def _refuse_duals(caller, u, theta):
    """Raise ``TypeError`` on a state or parameter vector of multiduals (an object array)."""
    if np.asarray(u).dtype.hasobject or np.asarray(theta).dtype.hasobject:
        raise TypeError(f"{caller} steps float and complex states only; for a forward-mode "
                        'derivative use sk.gradient(..., "forward_ad")')


def scaled_error(u, u_hat, abstol, reltol) -> float:
    """Tolerance-scaled RMS difference between two state approximations.

    Each coordinate contributes ``|u_i - u_hat_i| / (abstol + reltol * M_i)``
    with ``M_i = max(|u_i|, |u_hat_i|)``; the result is the root mean square.
    """
    u, u_hat = np.asarray(u), np.asarray(u_hat)
    if u.shape != u_hat.shape:
        raise ValueError("state shapes differ")
    err = np.abs(u - u_hat)
    scale = abstol + reltol * np.maximum(np.abs(u), np.abs(u_hat))
    terms = (err / scale) ** 2
    # np.mean's bits at a third of its cost on a small state
    return math.sqrt(terms.sum() / terms.size)


def propose_dt(dt_prev, w, order: int) -> float:
    """Next stepsize from the inverse scaled error ``w`` of the last step.

    The elementary controller: ``0.9 * w^(1/order)``, clamped to
    ``[0.2, 10]``, times ``dt_prev``.
    """
    if dt_prev <= 0:
        raise ValueError("dt_prev must be positive")
    return min(max(0.9 * w ** (1.0 / order), 0.2), 10.0) * dt_prev


def solve(problem: OdeProblem, config: SolverConfig, theta=None) -> Solution:
    """Integrate a problem over its time span under the given configuration.

    ``theta`` overrides the problem's nominal parameters; complex ones give
    complex states, which is how complex step pushes complex scalars
    through the solver, and a multidual one raises ``TypeError`` before any
    right-hand-side call.  Every node is kept, and ``saveat`` rows, at
    times in the span (``core.check_saveat``), are the dense output there.
    """
    theta = problem.theta if theta is None else np.asarray(theta)
    _refuse_duals("solve", problem.u0, theta)
    check_saveat(config.saveat, problem.tspan)
    stats = SolverStats()
    return _march(_counted(problem, stats).rhs, problem.u0, theta, *problem.tspan, config.tableau,
                  stats, config, keep="all", saveat=config.saveat)


def _attempt(t, t1, end, dt, attempts, max_steps):
    """The step tried from ``t``, ``(stepsize, end time, is_last)``: ``t + dt``,
    clipped to ``t1`` from ``end`` on.  Raises past ``max_steps`` attempts or
    on a ``dt`` too small to move ``t``."""
    if attempts >= max_steps:
        raise NonConvergenceError(f"exceeded {max_steps} step attempts at t={t!r}", t=t, dt=dt)
    if dt < 1e3 * _EPS * max(abs(t), abs(t1)):
        raise StepsizeUnderflowError(f"stepsize underflow: dt={dt!r} at t={t!r}", t=t, dt=dt)
    is_last = t + dt >= end
    return (t1 - t, t1, True) if is_last else (dt, t + dt, False)


@lru_cache(maxsize=1)
def _fixed_mesh(t, t1, dt, max_steps):
    """Node times and stepsizes of a fixed-step run, known before any step.

    The grid every fixed-step ``_march`` stretch steps, built by ``_attempt``
    before its first right-hand-side call.  It keeps a forward run's grid cached:
    the discrete adjoint checks its observations against it, then steps it."""
    end, dt = t1 - 1e-12 * max(t1 - t, 1.0), min(dt, t1 - t)
    times, dts = [t], []
    while t < end:
        dt_step, t, _ = _attempt(t, t1, end, dt, len(dts), max_steps)
        times.append(t)
        dts.append(dt_step)
    return tuple(times), tuple(dts)


def _march(rhs, u, theta, t, t1, tableau, stats, steps, keep=None, plan=None, saveat=None,
           norm_n=None, stops=(), jump=None):
    """Step ``u`` from ``t`` to ``t1``: the one stepping loop of every integration.

    ``steps`` is a ``SolverConfig``, whose controller (embedded tableau)
    picks the steps through ``_attempt`` and whose fixed ``dt`` steps
    ``_fixed_mesh``'s grid, or the ``(node_times, step_dts)`` of a recorded
    run, taken again bitwise.  ``stats`` gains the accepted and rejected
    steps.  ``keep`` None returns the end state; ``"final"`` a ``Solution``
    of the node times and stepsizes and the end states; ``"all"`` one of
    every node's state and derivative; ``"tape"`` that and the stage tape.
    ``saveat``, sorted times in the span, makes the ``Solution``'s
    ``times``/``states`` the state at each, taken from the step's rows as
    the step holding it is accepted: the bits of ``dense_eval`` on the kept
    mesh, which need not be kept.  Unless it keeps every node or a
    ``saveat`` time lies inside the last step, a non-FSAL tableau skips that
    step's end derivative.  ``plan`` holds the checkpoint times: the first
    node at or past each, and the last, join node 0 in ``checkpoints``.
    ``norm_n`` limits the controller's error norm to its first coordinates.

    ``stops``, sorted times inside the span, end a configured run's steps,
    each at a node, bitwise.  At each and at ``t1``, ``jump(i, u, rows)``
    returns the state to go on from, given the stop's index and the
    ``saveat`` rows taken since the stop before, which the run then drops.
    Each stretch starts as a run of its own: its grid built, then its
    derivative read, its own ``max_steps``, a first attempt no longer than
    it and, under control, the larger of the last attempt before
    ``_attempt`` clipped it to the stop and the proposal after it (Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.4).
    """
    tiny, tol = 1e-12 * max(abs(t1 - t), 1.0), span_tol(t, t1)
    control = isinstance(steps, SolverConfig) and steps.adaptive
    if control:
        dt = steps.dt if steps.dt is not None else 1e-3 * (t1 - t)
    nodes = keep in ("all", "tape")
    grid = [] if saveat is None else saveat.tolist()
    times, states, derivs, step_dts, errors = [t], [u], [], [], []
    taped = [] if keep == "tape" else None
    saved, rows = 0, []  # the count of saveat rows taken, and those since the last stop
    snaps = None if plan is None else {0: u}
    next_target = 1  # plan[0] is t0, already stored
    for i, b in enumerate([*stops, t1]):
        final, attempts = i == len(stops), 0
        if control:
            end, dt = b - 1e-12 * max(b - t, 1.0), min(dt, b - t)
        else:  # raises on a grid over budget or underflowing before the read below
            mesh, dts = (steps if not isinstance(steps, SolverConfig)
                         else (_fixed_mesh.__wrapped__ if stops or jump else _fixed_mesh)(
                             t, b, steps.dt, steps.max_steps))
            end = mesh[-1]
        f = np.asarray(rhs(u, theta, t))
        if i == 0:
            derivs.append(f)
        while t < end:
            if control:
                dt_step, t_new, is_last = _attempt(t, b, end, dt, attempts, steps.max_steps)
            else:
                dt_step, t_new = dts[attempts], mesh[attempts + 1]
                is_last = t_new == end
            attempts += 1
            u_next, u_emb, k, stages = rk_step(tableau, rhs, u, theta, t, dt_step, f0=f)
            if control:
                err = scaled_error(u_next[:norm_n], u_emb[:norm_n], steps.abstol, steps.reltol)
                if not (err <= 1.0):
                    stats.rejected_steps += 1
                    if err > 1.0:
                        dt = propose_dt(dt_step, 1.0 / err, tableau.order)
                    else:  # a NaN error
                        dt = 0.5 * dt_step
                    continue
                errors.append(err)
                proposal = propose_dt(dt_step, (1.0 / err) if err > 0 else math.inf, tableau.order)
                # past a step clipped to its stop, the larger of the attempt and the proposal
                dt = max(dt, proposal) if is_last else proposal
            # this step's saveat rows, those up to its end and past t1 the rest, each
            # as dense_eval reads it off the mesh, by its step rule (not ``end``: the loop's)
            ta, tb = float(t), float(t_new)
            take = len(grid) if is_last and final else bisect_right(grid, tb, saved)
            sides = [_step_end(ta, tb, x, tol) for x in grid[saved:take]] if take > saved else ()
            if tableau.fsal:
                f = k[-1]
            elif is_last and not nodes and None not in sides:
                f = None  # no node or Hermite saveat row reads it and no step follows
            else:
                f = np.asarray(rhs(u_next, theta, t_new))
            if sides:
                hermite = _hermite_rows(u, k[0], u_next, f, tb - ta) if None in sides else None
                rows += [_horner(hermite, (x - ta) / (tb - ta)) if side is None
                         else (u_next if side else u).copy()
                         for x, side in zip(grid[saved:take], sides)]
                saved = take
            stats.accepted_steps += 1
            times.append(t_new)
            step_dts.append(dt_step)
            if nodes:
                states.append(u_next.copy())
                derivs.append(f)
                if taped is not None:
                    taped.append(stages[1:].copy())  # Y_1 is the step's first node
            if snaps is not None and next_target < len(plan) and t_new >= plan[next_target] - tiny:
                snaps[len(step_dts)] = u_next.copy()
                while next_target < len(plan) and plan[next_target] <= t_new + tiny:
                    next_target += 1
            u, t = u_next, t_new
        if jump is not None:
            u, rows = jump(i, u, rows), []

    if keep is None:
        return u
    node_times = np.asarray(times)
    node_states = np.array(states) if nodes else None
    sol = Solution(
        times=node_times if nodes else np.array([times[0], t1]),
        states=node_states if nodes else np.array([states[0], u]),
        node_times=node_times, node_states=node_states,
        node_derivs=np.array(derivs) if nodes else None,
        stats=stats, step_errors=errors, checkpoints=snaps,
        step_dts=np.asarray(step_dts), stage_tape=taped,
    )
    if saveat is not None:  # rows still untaken here: a solve that took no step
        sol.times, sol.states = saveat, np.array(rows + [u] * (len(saveat) - len(rows)))
    return sol
