"""Reverse-mode gradients: the discrete adjoint and three continuous adjoints.

One function, ``continuous_adjoint``, runs all four variants: it checks the
request, runs the forward pass, builds one reverse ``SolverConfig``, runs
the variant's reverse pass back to ``t0`` and assembles
``g + (du0/dtheta)^T lambda(t0)`` into one result.  The variants differ
only in how the reverse pass reads the forward state.  The discrete
adjoint transposes the solver's own Runge-Kutta stage recursion (Hager
2000, Numer. Math. 87; Sandu 2006, ICCS) over the stage inputs on the
stage tape of the forward solve or of a checkpoint segment's replay, so
it returns the exact derivative of the discretized loss on a fixed grid
and runs no step again.  The continuous adjoints integrate the costate ODE
``dlambda/dt = -(df/du)^T lambda`` and the integral of
``lambda^T df/dtheta``: interpolating jointly, over the Hermite rows of
the stored or checkpoint-recomputed forward steps; quadrature the costate
alone, then the integral by ``QUADRATURE_ORDER``-point Gauss-Legendre per
forward step, the fewest points exact where the integrand is a product of
cubic Hermite reads; backsolve re-solving the forward state backwards with
the costate and checking it at each observation stop against the state
its forward pass kept there.
Every Jacobian the variants read comes from ``sensitivity.jacobian_assembly``,
asked for what each reads: a discrete step and the interpolating field
``J_u`` and ``J_theta``, backsolve's field ``f`` besides, quadrature's
costate field ``J_u`` alone and its Gauss nodes ``J_theta`` alone.  A
cheaper reverse-pass Jacobian, such as a column-compressed sparse one,
changes that function alone.

Each continuous reverse pass is one march from ``t1`` to ``t0`` that stops
at the observations.  On an adaptive method its ``SolverConfig``'s ``dt``
is the step the forward pass's controller carries out of its last steps,
and each stretch between stops starts from the step the one before it
carried out, so a stretch's first attempt is rarely rejected and a
checkpointed pass reads the segments right to left.  A fixed-step method
keeps its own ``dt``, as backsolve's stretches span many forward steps.
The reverse step budget is capped relative to the forward cost.
On an adaptive method interpolating alone scales the request's tolerances,
by ``INTERPOLATING_FORWARD_TOL_FACTOR`` in its forward pass and
``INTERPOLATING_REVERSE_TOL_FACTOR`` in its reverse pass: its gradient
error is mostly forward-read error, while quadrature's Gauss-node rows
read the reverse steps and backsolve's reverse pass reconstructs the state.

The loss enters the reverse pass as jumps: traversed in reverse, the
costate is incremented at each observation's stop by the loss gradient at
the state there: ``_observation_stops`` tables the stops once per request,
each the forward node its read returns (``core._locate``) or its own time.
An integrated loss reaches the adjoints as the one observation ``q(t1)``
of the running integral ``q' = h`` (``core.check_request``), so its
``dh`` terms are rows of the extended Jacobians.  The discrete adjoint
walks the forward steps right to left; the continuous ones apply the jumps
at the stops of their one costate solve (``_integrate_costate_interval``),
which runs ``solve``'s own loop, ``solver._march``, on the reversed field
over the clock ``sigma = t1 - t``; the dense ones build their fields once
per request and read the forward state by ``dense_eval`` over the whole
mesh.  Checkpoint segments rerun the recorded forward steps from their
snapshots bitwise, in ``_segments_reverse`` alone; the dense adjoints' when
a reverse read first needs a state no snapshot holds, at the same stops as
full storage, so the gradients are independent of the checkpoint count.
The dense adjoints' costate field (``adjoint_rhs``) is linear in the
costate, so it reads the forward state and assembles its Jacobians once per
distinct field time.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from numbers import Integral
from typing import Optional

import numpy as np

from .core import (
    OdeProblem,
    SensitivityResult,
    Solution,
    SolverStats,
    _counted,
    _horner,
    _locate,
    _read_times,
    check_request,
    dense_eval,
    span_tol,
)
from .errors import NumericalBlowupError, _StepError
from .sensitivity import jacobian_assembly
from .solver import (SolverConfig, _fixed_mesh, _march, checkpoint_plan, propose_dt,
                     scaled_error)

VARIANTS = ("discrete", "backsolve", "interpolating", "quadrature")

# Gauss-Legendre points of the quadrature variant's gradient integral per
# forward step (clipped to its observation interval).  Its integrand
# lambda^T J_theta(u) multiplies the costate, read by a reverse step's cubic
# Hermite row, with J_theta at the forward state, a forward step's cubic
# Hermite row: degree 6 wherever J_theta is linear in u (every catalog and
# benchmark problem) and both reads are single cubics.  A k-point rule is
# exact to degree 2k - 1, so 4 points are the fewest exact there; 3 (exact to
# 5) are not: the diffusion-fit pool's median gradient error then reads
# 1.07e-6 against 3.7e-7 at 4, 5 or 7 points, which err alike
QUADRATURE_ORDER = 4

# on an adaptive method the interpolating variant runs its forward pass at
# the first multiple of the request's abstol and reltol and its costate
# solve at the second.  Its gradient error is the forward pass's read
# error plus the reverse pass's step error, and at factors (1, 3) the first
# was at least 3 times the second (harmonic at 1e-6: 5.5 against 1.7 tol).
# Of the pairs in {1, 0.5, 0.3, 0.1} x {3, 5, 10, 30} whose error on
# harmonic, predprey a = 0.95 and 1, heat1d n = 16 and diffusion-fit at tol
# 1e-6, 1e-8 and 1e-10 stays within max(its error at (1, 3), tol), (0.3, 10)
# and (0.5, 10) are the fastest on the benchmark pools, tied within noise;
# (0.3, 10) errs less.  (0.3, 30) fails the rule: harmonic at 1e-6 errs by
# 14 tol
INTERPOLATING_FORWARD_TOL_FACTOR = 0.3
INTERPOLATING_REVERSE_TOL_FACTOR = 10

# largest tolerance-scaled error (``solver.scaled_error`` under the reverse
# tolerances) with which backsolve may reconstruct a stored forward state.
# Stable problems read about 2 at tol 1e-8 at t0, and predprey up to about
# 17 at its interior observation stops; a reversed state that blew up reads
# the 1/reltol ceiling (1e6 and more).  From reltol 1e-3 up that
# ceiling no longer clears this bound, so the check caps the bound at half
# the ceiling.
MAX_RECONSTRUCTION_ERROR = 1e3


@dataclass(frozen=True)
class AdjointConfig:
    """Adjoint variant selection plus solver settings.

    ``solver_config`` drives the forward solve and every reverse
    integration; on an adaptive method the interpolating variant runs its
    forward solve at ``INTERPOLATING_FORWARD_TOL_FACTOR`` and its reverse
    integration at ``INTERPOLATING_REVERSE_TOL_FACTOR`` times its
    ``abstol`` and ``reltol``.  ``checkpoints``, an integer of at least 1,
    bounds forward storage: snapshots are kept at that many uniform spans
    and the trajectory between them is recomputed on demand (backsolve
    resets to them).
    """

    variant: str = "interpolating"
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    checkpoints: Optional[int] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown adjoint variant {self.variant!r}")
        check_checkpoints(self.checkpoints)


def check_checkpoints(ck):
    """Refuse a checkpoint count ``ck`` other than None or an integer of at least 1."""
    if ck is not None and (isinstance(ck, bool) or not isinstance(ck, Integral) or ck < 1):
        raise ValueError(f"checkpoint count must be an integer of at least 1, got {ck!r}")


def gauss_legendre(fn, a, b, order: int):
    """Fixed-order Gauss-Legendre quadrature of a vector integrand on [a, b].

    The rule on [-1, 1] is computed once per order (``leggauss`` solves an
    eigenproblem).
    """
    if not a < b:
        raise ValueError("need a < b")
    if order < 2:
        raise ValueError("order must be at least 2")
    total = 0.0
    for t, w in zip(*_gauss_rule(a, b, order)):
        total = total + w * np.asarray(fn(t))
    return total


def _gauss_rule(a, b, order: int):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [a, b], or per row."""
    nodes, weights = _legendre_rule(order)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * nodes, half * weights


# the rule on [-1, 1] by order; the last few orders used stay cached
_legendre_rule = lru_cache(maxsize=8)(np.polynomial.legendre.leggauss)


def adjoint_rhs(problem: OdeProblem, u_at, *, jac_theta=True):
    """The dense adjoints' costate field on the reversed clock, built once per request.

    Returns ``rhs(y, theta, t)``: ``dlambda/dsigma = (df/du)^T lambda`` for
    ``lambda = y[:n]`` on the clock ``sigma = t_right - t`` that
    ``_integrate_costate_interval`` steps, followed, with ``jac_theta``, by
    the integrand ``dg = (df/dtheta)^T lambda``; without it ``J_u`` alone is
    assembled.  ``u_at(t)`` reads the forward state.  The field is linear in
    lambda and ``theta`` is the request's throughout, so it keeps the
    Jacobians of the last time it read and reads the state and assembles
    only at a new ``t``: stages that share a time (DOPRI5's last two, rk4's
    middle two) and a stop's two sides pay once.  The loss enters as jumps.
    """
    n = problem.n
    kept = (math.nan, None, None)  # (t, J_u, J_theta) of the last time read; nan equals no t

    def rhs(y, theta, t):
        nonlocal kept
        if t != kept[0]:
            kept = (t, *jacobian_assembly(problem, u_at(t), theta, t, jac_theta=jac_theta)[:2])
        _, J_u, J_theta = kept
        lam = y[:n]
        return J_u.T @ lam if J_theta is None else np.concatenate([J_u.T @ lam, J_theta.T @ lam])

    return rhs


def step_vjp(problem: OdeProblem, tableau, stages, theta, t, dt, lam_in):
    """Transposed Jacobians of one solver step applied to a costate.

    Returns ``((dPhi/du)^T lam, (dPhi/dtheta)^T lam)`` for the step map
    ``Phi`` from ``(t, u)`` with stepsize ``dt``, by the transposed stage
    recursion of Hager (2000) and Sandu (2006).  ``stages`` holds the
    step's ``s`` stage inputs ``Y_i`` as ``rk_step`` returns them, with
    ``Y_1 = u``; the discrete adjoint reads them off a stage tape, so the
    step does not run again.  ``t`` and ``dt`` are Python floats and
    ``theta`` and ``lam_in`` float arrays.  The sweep traverses the stages in
    reverse, walking the tableau's nonzero couplings (``reverse_couplings``),
    and assembles a stage's Jacobians, one ``jacobian_assembly`` at
    ``(Y_i, t + c_i dt)``, when it reaches that stage:

        kbar_i = dt b_i lam + sum_(j>i, a_ji != 0) dt a_ji Ybar_j
        Ybar_i = J_u(Y_i)^T kbar_i

    giving ``lam + sum_i Ybar_i`` and ``sum_i J_theta(Y_i)^T kbar_i``.
    """
    s = tableau.stages
    if len(stages) != s:
        raise ValueError(f"step_vjp needs the {s} stage inputs of the step, got {len(stages)}")
    lam_out, ybar, grad = lam_in, [None] * s, np.zeros(theta.size)
    for i, b_i, c_i, couplings in tableau.reverse_couplings:
        kbar = (dt * b_i) * lam_in
        for j, a_ji in couplings:
            kbar = kbar + (dt * a_ji) * ybar[j]
        J_u, J_theta, _ = jacobian_assembly(problem, stages[i], theta, t + c_i * dt)
        # J.T @ kbar's bits: by the method at half its cost unless J is strided (multidual)
        ybar[i] = kbar.dot(J_u) if J_u.flags.forc else kbar @ J_u
        lam_out = lam_out + ybar[i]
        grad = grad + (kbar.dot(J_theta) if J_theta.flags.forc else kbar @ J_theta)
    return lam_out, grad


# ---------------------------------------------------------------------
# the one entry point of every variant


def continuous_adjoint(
    problem: OdeProblem, loss, config: AdjointConfig, theta=None
) -> SensitivityResult:
    """Adjoint gradient in the configured variant, the discrete one included.

    Raises before any work on a bad request and, for the discrete variant,
    on an adaptive method or an observation off the fixed grid.  Runs the
    forward pass, then the variant's reverse pass under the one reverse
    ``SolverConfig``, and assembles ``g + (du0/dtheta)^T lambda(t0)``;
    ``metadata`` holds ``lambda0`` and the variant's health signals.
    """
    fwd = config.solver_config
    discrete = config.variant == "discrete"
    if discrete and fwd.adaptive:
        raise ValueError("unsupported configuration: the discrete adjoint requires a "
                         "reproducible fixed grid (euler or rk4 forward)")
    problem, loss, theta = check_request(problem, loss, theta, fwd.saveat)
    tol = span_tol(*problem.tspan)
    if discrete:  # its grid, and so every stop, is known before any step
        mesh = _fixed_mesh(*problem.tspan, fwd.dt, fwd.max_steps)[0]
        stops = _observation_stops(loss, mesh, tol)
        off = set(stops).difference(mesh)  # a stop off the grid is a time
        if off:
            raise ValueError(f"observation time {max(off)} does not sit on the fixed grid")
    # interpolating on an adaptive method scales the request's tolerances
    rescale = config.variant == "interpolating" and fwd.adaptive
    stats = SolverStats()
    problem = _counted(problem, stats)
    forward = (replace(config, solver_config=_scaled(fwd, INTERPOLATING_FORWARD_TOL_FACTOR))
               if rescale else config)
    sol = _forward_pass(problem, forward, theta, loss.times, stats)
    if not discrete:
        stops = _observation_stops(loss, sol.node_times.tolist(), tol)

    # an adaptive reverse pass starts from the step the forward controller
    # carries out, the larger of its proposals after its last two steps; a
    # fixed step keeps its dt.  Unstable reverse dynamics show as unbounded
    # reverse work, not always as a clean overflow, so the budget relative to
    # the forward cost makes them fail fast
    handoff = [propose_dt(h, 1.0 / e if e > 0 else math.inf, fwd.tableau.order)
               for h, e in zip(sol.step_dts[-2:].tolist(), sol.step_errors[-2:])]
    rev = replace(fwd, dt=max(handoff, default=fwd.dt),
                  max_steps=min(fwd.max_steps, max(10_000, 20 * stats.accepted_steps)))
    if rescale:
        rev = _scaled(rev, INTERPOLATING_REVERSE_TOL_FACTOR)
    if discrete:
        g, lam, peak, extra = _discrete_reverse(problem, loss, stops, sol, theta, rev, stats)
    elif config.variant == "backsolve":
        g, lam, peak, extra = _backsolve(problem, loss, stops, sol, theta, rev, stats)
    else:
        g, lam, peak, extra = _dense_reverse(problem, loss, stops, sol, theta, rev, stats,
                                             config.variant == "quadrature")
    gradient = g + problem.initial_state_jacobian().T @ lam
    return SensitivityResult(
        gradient=np.asarray(gradient, dtype=float),
        method="discrete_adjoint" if discrete else f"continuous_{config.variant}",
        stats=stats,
        peak_stored_states=peak,
        metadata={"lambda0": lam, **extra},
    )


def discrete_adjoint(
    problem: OdeProblem, loss, config: AdjointConfig, theta=None
) -> SensitivityResult:
    """Exact gradient of the discretized loss via reverse step recursion.

    Runs ``continuous_adjoint`` with the discrete variant, whatever
    ``config.variant`` says.  The forward pass runs a fixed-grid explicit
    method and stores its states (or checkpoints plus replay); the reverse
    pass recurses ``lam_m = (dPhi_m/du)^T lam_(m+1)`` plus the observation
    jumps, accumulating ``(dPhi_m/dtheta)^T lam_(m+1)`` into the gradient.
    """
    return continuous_adjoint(problem, loss, replace(config, variant="discrete"), theta)


# ---------------------------------------------------------------------
# shared reverse-pass plumbing


def _observation_stops(loss, nodes, tol):
    """Each stop on the forward mesh ``nodes`` -> the indices of its observations, in order.

    Every reverse pass stops for an observation at the node a read at its
    time returns (``core._locate``), else at the previous observation's
    stop if within ``tol``, else at its own time (the losses sort their
    times and reject repeats, so a time's position is its loss index).  So
    each stop is a node or a time the reverse march ends a step at.
    """
    stops, prev = {}, -math.inf
    for i, t in enumerate(loss.times.tolist()):
        j, end, _ = _locate(nodes, t, tol)
        prev = nodes[j + end] if end is not None else prev if t - prev <= tol else t
        stops.setdefault(prev, []).append(i)
    return stops


def _scaled(cfg: SolverConfig, factor) -> SolverConfig:
    """``cfg`` at ``factor`` times its ``abstol`` and ``reltol``.

    Each stays a legal tolerance: floored at the smallest positive float, so
    a tiny request tolerance does not become 0, and capped at the largest,
    so a huge one does not become infinite.
    """
    def bound(tol):
        return min(max(tol * factor, math.ulp(0.0)), sys.float_info.max)

    return replace(cfg, abstol=bound(cfg.abstol), reltol=bound(cfg.reltol))


def _jump(loss, lam, observed, u):
    """``lam`` plus the loss gradient at ``u``, the state at a stop, of its ``observed``."""
    for i in observed:
        lam = lam + loss.grad_u_at(u, i)
    return lam


def _forward_pass(problem, config: AdjointConfig, theta, times, stats):
    """Forward solve keeping what the variant's reverse pass reads.

    The one place that chooses the forward storage; it runs ``_march`` on
    the request's counted problem and ``stats`` under ``config``'s solver
    settings as given (``continuous_adjoint`` scales interpolating's).  It
    keeps the node times and end states, and the snapshots of
    ``checkpoint_plan``, for checkpoints or backsolve; every node and the
    stage tape for the discrete adjoint; every node otherwise.  Backsolve's
    also keeps, as its ``times``/``states``, the state at each observation
    time in ``times`` more than ``span_tol`` inside the span, then at ``t1``.
    """
    fwd, (t0, t1) = config.solver_config, problem.tspan
    plan = None if config.checkpoints is None else checkpoint_plan((t0, t1), config.checkpoints)
    saveat = None
    if config.variant == "backsolve":
        tol = span_tol(t0, t1)
        saveat = np.array([t for t in times if t0 + tol < t < t1 - tol] + [t1], dtype=float)
    keep = ("final" if plan is not None or saveat is not None
            else "tape" if config.variant == "discrete" else "all")
    return _march(problem.rhs, problem.u0, theta, t0, t1, fwd.tableau, stats, fwd,
                  keep=keep, plan=plan, saveat=saveat)


def _segments_reverse(problem, sol: Solution, theta, tableau, keep="all", last=None):
    """Yield ``(seg, times, states)`` per mesh segment, from segment ``last`` leftwards.

    ``seg`` is a dense ``Solution`` carrying its own ``step_dts`` and, with
    ``keep="tape"``, its stage tape; ``times`` and ``states`` are its node
    times and states (the benchmark tracer counts the latter).  Full
    storage yields ``sol`` itself.  Checkpointed, segment ``k`` runs from
    snapshot ``k`` to ``k + 1`` (``last`` defaults to the rightmost) and
    reruns the recorded steps, so its nodes and stage tape have the bits of
    a full-storage pass; its right-hand sides are counted again.
    """
    if sol.node_states is not None:
        yield sol, sol.node_times, sol.node_states
        return
    bounds = list(sol.checkpoints)  # node index of each snapshot
    for k in range(len(bounds) - 2 if last is None else last, -1, -1):
        i_a, i_b = bounds[k : k + 2]
        ts = sol.node_times[i_a : i_b + 1]
        # the recorded stepsizes, not the node-time differences, keep it bitwise
        seg = _march(problem.rhs, sol.checkpoints[i_a], theta, ts[0], ts[-1], tableau,
                     SolverStats(), (ts, sol.step_dts[i_a:i_b]), keep=keep)
        yield seg, seg.node_times, seg.node_states


class _SegmentReader:
    """``dense_eval`` over the whole forward mesh of a checkpointed pass.

    A read takes ``dense_eval``'s checks, ``_locate`` and ``s`` on the full
    mesh, so it has a full-storage pass's bits and refuses what
    ``dense_eval`` refuses.  One returning a snapshot node's state takes the
    snapshot; any other reads the segment holding the step (a node's state
    or its ``dense_rows``), replaying it unless it is held, then keeps it
    and the segment to its right: a reverse attempt that crosses a snapshot
    leftwards, then is rejected and starts again from its right end, finds
    both held.  ``read_ahead`` names the times of the next array read, which
    each segment answers while it is held, so quadrature's Gauss-node rows
    replay no segment its costate solve held.  A pass whose reverse steps
    read the segments right to left replays each once.
    ``replay(k)`` is segment ``k`` as ``_segments_reverse`` yields it.
    ``drop_right_of`` lets go of the segments no later read reaches.
    ``peak`` counts the nodes of the segments held at once plus the snapshots.
    """

    def __init__(self, problem, sol: Solution, theta, tableau):
        self.replay = lambda k: next(_segments_reverse(problem, sol, theta, tableau, last=k))[0]
        self.nodes, self.tol = sol._mesh  # as dense_eval's scalar reads
        self.snapshots = sol.checkpoints
        self.bounds = list(sol.checkpoints)  # node index of each snapshot
        self.held = {}  # segment index -> its replay
        self.ahead = {}  # time read ahead -> its row, None until its segment is held
        self.pending = {}  # segment index -> the reads ahead it holds, as (t, _locate's)
        self.peak = 0

    def __call__(self, t):
        if type(t) is not float and (isinstance(t, (list, tuple)) or getattr(t, "ndim", 0)):
            t = self.read_ahead(t)  # a row per time, as dense_eval's array read
            for k in sorted(self.pending):  # the segments no read held yet, left to right
                self._segment(k)
            rows, self.ahead = self.ahead, {}
            return (np.array([rows[x] for x in t.tolist()]) if t.size
                    else np.empty((0, len(self.snapshots[0]))))
        i, end, _ = where = _locate(self.nodes, t, self.tol)  # dense_eval's step and end
        if end is not None and i + end in self.snapshots:
            return self.snapshots[i + end]
        k = bisect_right(self.bounds, i) - 1  # the segment holding step i
        return self._read(self._segment(k), k, where)

    def read_ahead(self, ts):
        """Let each segment answer the reads at ``ts`` it holds while held; returns them checked."""
        ts, _ = _read_times(self.nodes, ts)
        for t in ts.tolist():
            if t in self.ahead:
                continue
            i, end, _ = where = _locate(self.nodes, t, self.tol)
            if end is not None and i + end in self.snapshots:
                self.ahead[t] = self.snapshots[i + end]
            else:
                self.ahead[t] = None
                self.pending.setdefault(bisect_right(self.bounds, i) - 1, []).append((t, where))
        for k, seg in self.held.items():
            self._answer(k, seg)
        return ts

    def drop_right_of(self, t):
        """Let go of the segments starting at or after ``t``, which reads up to ``t`` skip."""
        self.held = {k: s for k, s in self.held.items() if self.nodes[self.bounds[k]] < t}

    def _read(self, seg, k, where):
        """The read ``_locate`` placed at ``where`` on the full mesh, in segment ``k``, ``seg``."""
        i, end, s = where
        j = i - self.bounds[k]
        return seg.node_states[j + end] if s is None else _horner(seg.dense_rows[j], s)

    def _answer(self, k, seg):
        for t, where in self.pending.pop(k, ()):
            self.ahead[t] = self._read(seg, k, where)

    def _segment(self, k):
        seg = self.held.get(k)
        if seg is None:
            seg = self.replay(k)
            self.held = {k: seg, **{r: s for r, s in self.held.items() if r == k + 1}}
            self.peak = max(self.peak, len(self.snapshots)
                            + sum(len(s.node_times) for s in self.held.values()))
        self._answer(k, seg)
        return seg


def _integrate_costate_interval(rhs, y, t_left, t_right, theta, cfg, stats, stops=(),
                                jump=None, at=None):
    """Integrate ``rhs`` backwards from ``y`` at ``t_right`` to ``t_left`` in one march.

    ``rhs(y, theta, t)`` is the reversed field ``dy/dsigma`` at time ``t``;
    only this function converts times to the clock ``sigma = t_right - t``
    that ``_march`` steps forwards: ``stops``, right to left, and the sorted
    ``at`` become its ``stops`` and ``saveat``, so ``jump`` gets the rows at
    ``at`` right to left.  Adds the steps to ``stats``; returns the end
    state.  A step failure is raised again with its time ``t_right - sigma``
    in its ``t`` and message; a jump's own, which carries no ``dt``, as it is.
    """
    try:
        return _march(lambda z, th, sigma: rhs(z, th, t_right - sigma), y, theta, 0.0,
                      t_right - t_left, cfg.tableau, stats, cfg,
                      saveat=None if at is None else t_right - at[::-1],
                      stops=[float(t_right - s) for s in stops], jump=jump)
    except _StepError as err:
        if err.dt is not None:
            sigma, err.t = err.t, t_right - err.t
            err.args = (str(err).replace(f"at t={sigma!r}", f"at t={err.t!r}"),)
        raise


# ---------------------------------------------------------------------
# the reverse passes: each takes the counted problem, the loss and its stop
# table (``_observation_stops``), the forward solution, theta, the reverse
# config and the request's stats, applies at each stop it reaches the jumps
# of the observations the table holds there (``_jump``) at the state it
# holds, and returns (g, lambda(t0), peak stored states, extra metadata)


def _discrete_reverse(problem, loss, stops, sol, theta, rev, stats):
    """Transposed solver steps, right to left, over the forward stage tape.

    Each step is ``step_vjp``'s stage recursion (Hager 2000, Sandu 2006)
    over the stage inputs on its segment's tape, with one Jacobian pair
    per stage; the reverse pass evaluates no right-hand side.  The
    observations sit on nodes (checked before any work), so the jumps at
    a node read its state.  The peak counts a segment's nodes, the ``s - 1``
    stage inputs of each of its steps and the checkpoint snapshots.
    """
    tableau = rev.tableau
    ckpt = len(sol.checkpoints) if sol.checkpoints is not None else 0
    lam, g, peak = np.zeros(problem.n), np.zeros(theta.size), 0
    for seg, ts, states in _segments_reverse(problem, sol, theta, tableau, "tape"):
        peak = max(peak, len(ts) + (tableau.stages - 1) * len(seg.stage_tape) + ckpt)
        ts, dts = ts.tolist(), seg.step_dts.tolist()  # step_vjp's Python floats
        for m in range(len(ts) - 2, -1, -1):
            lam = _jump(loss, lam, stops.get(ts[m + 1], ()), states[m + 1])
            stages = [states[m], *seg.stage_tape[m]]
            lam, contrib = step_vjp(problem, tableau, stages, theta, ts[m], dts[m], lam)
            g = g + contrib
    lam = _jump(loss, lam, stops.get(problem.tspan[0], ()), problem.u0)
    return g, lam, peak, {}


def _dense_reverse(problem, loss, stops, sol, theta, rev, stats, quadrature):
    """Interpolating and quadrature variants: one costate solve from ``t1`` to ``t0``.

    The solve ends a step at each stop of the table (``_observation_stops``),
    on the forward node times every storage mode keeps, so the stops do not
    depend on the checkpoint count.  It reads the forward state ``u_at`` at
    any time of the mesh by its Hermite rows: ``dense_eval`` on a
    full-storage pass, a ``_SegmentReader`` on a checkpointed one, which
    lets go at each stop of the segments no later read reaches.  Interpolating integrates the
    gradient with the costate under ``rev`` (on an adaptive method at
    ``INTERPOLATING_REVERSE_TOL_FACTOR`` times the request's tolerances).
    Quadrature's costate field pays only ``J_u``; its solve takes the
    costate at the rule's nodes on every forward step (split at the stops),
    and at each stop ``gauss_legendre`` adds the terms of ``J_theta^T
    lambda`` of the interval it leaves, its nodes paying only ``J_theta``; a
    checkpointed pass names the next interval's nodes to the reader
    (``read_ahead``), so their rows live within one interval.  The peak
    counts the nodes of the mesh, or of the segments held at once plus the
    snapshots.  The costate field, built once per request by
    ``adjoint_rhs``, reads the state and assembles once per distinct time.
    """
    n, (t0, t1) = problem.n, problem.tspan
    nodes = sol.node_times.tolist()
    if sol.node_states is not None:
        u_at, reader = partial(dense_eval, sol), None
    else:
        u_at = reader = _SegmentReader(problem, sol, theta, rev.tableau)
    rhs = adjoint_rhs(problem, u_at, jac_theta=not quadrature)
    points = [t1, *sorted(set(stops) - {t0, t1}, reverse=True), t0]  # right to left
    # quadrature's pieces, the forward steps split at the stops, and their rules' nodes
    ends = sorted({*nodes, *points})
    e = np.array(ends)[:, None]
    tq = _gauss_rule(e[:-1], e[1:], QUADRATURE_ORDER)[0].ravel() if quadrature else None

    def interval(k):  # the pieces between points[k + 1] and points[k], and their nodes
        a, b = bisect_left(ends, points[k + 1]), bisect_left(ends, points[k])
        return zip(ends[a:b], ends[a + 1:b + 1]), tq[QUADRATURE_ORDER * a : QUADRATURE_ORDER * b]

    def arrive(k, lam):  # lam after the jumps at points[k]
        if k == len(points) - 1:
            return _jump(loss, lam, stops.get(t0, ()), problem.u0)
        if reader is not None:
            reader.drop_right_of(points[k])
        lam = _jump(loss, lam, stops.get(points[k], ()), u_at(points[k]))
        if quadrature and reader is not None:
            reader.read_ahead(interval(k)[1])  # each segment the solve holds answers its rows
        return lam

    def integrand(rows, t):  # reads the interval's Gauss-node rows in order
        u, lam_q = next(rows)
        return jacobian_assembly(problem, u, theta, t, jac_u=False)[1].T @ lam_q

    g = np.zeros(theta.size)

    def jump(i, y, lams):
        nonlocal g
        if not quadrature:
            return np.concatenate([arrive(i + 1, y[:n]), y[n:]])
        pieces, ts = interval(i)
        rows = zip(u_at(ts), reversed(lams))  # in gauss_legendre's order
        for a, b in pieces:
            g = g + gauss_legendre(partial(integrand, rows), a, b, QUADRATURE_ORDER)
        return arrive(i + 1, y)

    lam = arrive(0, np.zeros(n))
    y = _integrate_costate_interval(rhs, lam if quadrature else np.concatenate([lam, g]), t0, t1,
                                    theta, rev, stats, stops=points[1:-1], jump=jump, at=tq)
    lam, g = (y, g) if quadrature else (y[:n], y[n:])
    return g, lam, len(nodes) if reader is None else reader.peak, {}


def _backsolve(problem, loss, stops, sol, theta, rev, stats):
    """Joint reverse integration of state, costate, and gradient integral.

    The forward state is re-solved backwards from its stored final value in
    one march from ``t1`` to ``t0``; when checkpoints are available the
    reverse state is reset to each snapshot, discarding accumulated reverse
    error.  The march stops at the observation stops and the snapshots.  At
    every interior observation stop (before its jump), every reset and
    ``t0`` the reconstructed state is compared with the stored one: the
    forward pass's row of the first observation at that stop, the snapshot
    or ``u0``.  So a lost state raises at the first such stop, not after the
    whole reverse pass; the largest scaled
    error is reported as ``reconstruction_error``.  Unstable reverse
    dynamics surface as a blowup error recommending the interpolating
    variant: when the reverse solve fails, or when a reconstruction error
    exceeds ``MAX_RECONSTRUCTION_ERROR`` or half the ``1/reltol`` ceiling
    that a lost state's scaled error saturates at, whichever is smaller.
    """
    n, (t0, t1) = problem.n, problem.tspan
    # the snapshots by time, after t0's
    resets = {float(sol.node_times[i]): u for i, u in (sol.checkpoints or {}).items() if i}
    points = [t1, *sorted({*stops, *resets} - {t0, t1}, reverse=True), t0]  # right to left
    # what the reconstruction is checked against: the forward pass's row of
    # each stop's first observation, if it kept one (it keeps the interior
    # ones', then t1's), the snapshots and u0
    rows, times = dict(zip(sol.times[:-1].tolist(), sol.states)), loss.times.tolist()
    stored = {**{s: rows[times[i]] for s, (i, *_) in stops.items() if times[i] in rows},
              **resets, t0: problem.u0}

    def rhs(z, th, t):
        ll = z[n : 2 * n]
        J_u, J_theta, f = jacobian_assembly(problem, z[:n], th, t, f=True)
        return np.concatenate([-f, J_u.T @ ll, J_theta.T @ ll])

    reconstruction_error = 0.0
    bound = min(MAX_RECONSTRUCTION_ERROR, 0.5 / rev.reltol)

    def jump(i, z, _):
        nonlocal reconstruction_error
        u, t = z[:n], points[i + 1]
        if t in stored:
            err = scaled_error(u, stored[t], rev.abstol, rev.reltol)
            reconstruction_error = max(reconstruction_error, err)
            if not err <= bound:
                raise NumericalBlowupError(
                    f"backsolve reconstructed the forward state at t={t!r} with "
                    f"scaled error {err:.3g} (the reversed state dynamics are "
                    "unstable); use the interpolating adjoint variant instead",
                    t=t,
                )
        lam = _jump(loss, z[n : 2 * n], stops.get(t, ()), u)
        return np.concatenate([resets.get(t, u), lam, z[2 * n :]])

    u = np.asarray(sol.final_state(), dtype=float)
    z = np.concatenate([u, _jump(loss, np.zeros(n), stops.get(t1, ()), u), np.zeros(theta.size)])
    try:
        z = _integrate_costate_interval(rhs, z, t0, t1, theta, rev, stats, stops=points[1:-1],
                                        jump=jump)
    except _StepError as err:
        if err.dt is None:  # the reconstruction check's own refusal
            raise
        raise NumericalBlowupError(
            "backsolve reverse integration blew up (the reversed state "
            "dynamics are unstable); use the interpolating adjoint "
            f"variant instead [{type(err).__name__}: {err}]",
            t=err.t, dt=err.dt,
        ) from err
    # the end states, the observation rows and the snapshots
    peak = 1 + len(sol.times) + len(sol.checkpoints or ())
    u, lam, g = z[:n], z[n : 2 * n], z[2 * n :]
    return g, lam, peak, {"u0_recovered": u, "reconstruction_error": reconstruction_error}
