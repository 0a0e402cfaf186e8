"""Reverse-mode gradients: discrete and continuous adjoints.

The discrete adjoint transposes the solver's own Runge-Kutta stage
recursion (Hager 2000, Numer. Math. 87; Sandu 2006, ICCS), so it returns
the exact derivative of the discretized loss on a fixed grid.  Each step
costs one float re-run of its stages plus one Jacobian pair per stage,
analytic when the problem supplies them, else one multidual right-hand
side.  The continuous adjoint integrates the costate ODE

    dlambda/dt = -(df/du)^T lambda - (dh/du)^T

backwards from ``t1`` and assembles the gradient as
``lambda(t0)^T s(t0) + integral of (dh/dtheta + lambda^T df/dtheta)``.
Three realizations differ in how the forward state is made available on
the reverse pass: re-solving it backwards alongside the costate
(backsolve), Hermite dense output over stored or checkpoint-recomputed
forward steps (interpolating), and dense output plus a dense costate with
the gradient integral evaluated by fixed-order Gauss-Legendre quadrature
per step interval (quadrature).

Pointwise losses enter the reverse pass as jumps: traversed in reverse,
the costate is incremented by the loss gradient at each observation time.
This is the discrete-measure limit of the integrated-loss derivation and
is cross-validated against the discrete adjoint.

Reverse integration always runs the stepper over a forward-oriented
clock on the reversed vector field; checkpoint segments replay the
recorded forward stepsizes from their snapshots, which reproduces the
original trajectory bitwise and makes gradients independent of the
checkpoint count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (
    IntegratedLoss,
    OdeProblem,
    PointwiseLoss,
    SensitivityResult,
    Solution,
    SolverStats,
    loss_direct_gradient,
)
from .errors import (
    NonConvergenceError,
    NumericalBlowupError,
    StepsizeUnderflowError,
)
from .sensitivity import jacobian_assembly
from .solver import SolverConfig, dense_eval, rk_step, solve

VARIANTS = ("discrete", "backsolve", "interpolating", "quadrature")


@dataclass(frozen=True)
class AdjointConfig:
    """Adjoint variant selection plus forward and reverse solver settings.

    ``reverse_config`` applies where the reverse pass integrates its own
    ODE; it defaults to the forward configuration.  ``checkpoints`` bounds
    forward storage: snapshots are kept at that many uniform spans and the
    trajectory between them is recomputed on demand.
    """

    variant: str = "interpolating"
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    reverse_config: Optional[SolverConfig] = None
    checkpoints: Optional[int] = None
    quadrature_order: int = 7

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown adjoint variant {self.variant!r}")
        if self.quadrature_order < 2:
            raise ValueError("quadrature order must be at least 2")
        if self.checkpoints is not None and self.checkpoints < 1:
            raise ValueError("checkpoint count must be at least 1")

    def reverse(self) -> SolverConfig:
        if self.reverse_config is not None:
            return self.reverse_config
        return self.solver_config


def gauss_legendre(fn, a, b, order: int):
    """Fixed-order Gauss-Legendre quadrature of a vector integrand on [a, b]."""
    if not a < b:
        raise ValueError("need a < b")
    if order < 2:
        raise ValueError("order must be at least 2")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for x, w in zip(nodes, weights):
        total = total + (half * w) * np.asarray(fn(mid + half * x))
    return total


def adjoint_rhs(u, lam, theta, t, problem: OdeProblem, loss):
    """Forward-time costate and gradient-integrand derivatives.

    Returns ``dlambda/dt = -(df/du)^T lambda - (dh/du)^T`` and the
    integrand ``dg = (dh/dtheta)^T + (df/dtheta)^T lambda``.  Pointwise
    losses contribute no ``dh`` terms here; their observations enter as
    jumps during the reverse traversal.
    """
    J_u, J_theta = jacobian_assembly(problem, u, theta, t)
    dlam = -(J_u.T @ lam)
    dg = J_theta.T @ lam
    if isinstance(loss, IntegratedLoss):
        dlam = dlam - np.asarray(loss.dh_du(u, theta), dtype=float)
        dg = dg + np.asarray(loss.dh_dtheta(u, theta), dtype=float)
    return dlam, dg


def step_vjp(problem: OdeProblem, tableau, u, theta, t, dt, lam_in):
    """Transposed Jacobians of one solver step applied to a costate.

    Returns ``((dPhi/du)^T lam, (dPhi/dtheta)^T lam)`` for the step map
    ``Phi`` from ``(t, u)`` with stepsize ``dt``, by the transposed stage
    recursion of Hager (2000) and Sandu (2006).  The stages ``Y_i`` are
    re-run in floats through ``rk_step``, then traversed in reverse:

        kbar_i = dt b_i lam + sum_(j>i) dt a_ji Ybar_j
        Ybar_i = J_u(Y_i)^T kbar_i

    giving ``lam + sum_i Ybar_i`` and ``sum_i J_theta(Y_i)^T kbar_i``.  The
    cost is one Jacobian pair per stage from ``jacobian_assembly``.
    """
    theta = np.asarray(theta, dtype=float)
    stages = []

    def recording_rhs(y, th, ts):
        stages.append((y, ts))
        return problem.rhs(y, th, ts)

    rk_step(tableau, recording_rhs, np.asarray(u, dtype=float), theta, t, dt)
    a, b = tableau.a, tableau.b
    lam = np.asarray(lam_in, dtype=float)
    ybar = [None] * len(stages)
    lam_out = lam
    grad = np.zeros(theta.size)
    for i in range(len(stages) - 1, -1, -1):
        kbar = (dt * b[i]) * lam
        for j in range(i + 1, len(stages)):
            if a[j, i] != 0.0:
                kbar = kbar + (dt * a[j, i]) * ybar[j]
        y, ts = stages[i]
        J_u, J_theta = jacobian_assembly(problem, y, theta, ts)
        ybar[i] = J_u.T @ kbar
        lam_out = lam_out + ybar[i]
        grad = grad + J_theta.T @ kbar
    return lam_out, grad


# ---------------------------------------------------------------------
# shared reverse-pass plumbing


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


def _span_tol(problem):
    t0, t1 = problem.tspan
    return 1e-9 * max(abs(t1 - t0), 1.0)


def _observation_jumps(loss, problem):
    """Map observation time -> list of loss indices, validated in-span."""
    if not isinstance(loss, PointwiseLoss):
        return {}
    t0, t1 = problem.tspan
    tol = _span_tol(problem)
    if np.any(loss.times < t0 - tol) or np.any(loss.times > t1 + tol):
        raise ValueError("observation times fall outside the time span")
    table: dict = {}
    for i, t in enumerate(loss.times):
        table.setdefault(float(t), []).append(i)
    return table


def _forward_pass(problem, config: AdjointConfig, theta):
    """Forward solve retaining either full dense data or checkpoints."""
    fwd = replace(
        config.solver_config,
        save="all" if config.checkpoints is None else "final",
        saveat=None,
        checkpoints=config.checkpoints,
    )
    return solve(problem, fwd, theta=theta)


def _segments_reverse(problem, sol: Solution, theta, tableau):
    """Yield (base_index, times, states, derivs) mesh spans, right to left.

    Full storage yields one span covering the whole mesh.  Checkpointed
    runs replay the recorded stepsizes from each snapshot, reproducing the
    stored-trajectory states bitwise.
    """
    if sol.node_states is not None:
        yield 0, sol.node_times, list(sol.node_states), list(sol.node_derivs)
        return
    store = sol.checkpoints
    if store is None:
        raise ValueError("reverse pass needs stored nodes or checkpoints")
    for k in range(len(store) - 1, 0, -1):
        i_a, i_b = store.node_indices[k - 1], store.node_indices[k]
        ts = sol.node_times[i_a : i_b + 1]
        states = [np.asarray(store.states[k - 1], dtype=float)]
        u = states[0]
        f = np.asarray(problem.rhs(u, theta, ts[0]))
        derivs = [f]
        for m in range(len(ts) - 1):
            # the recorded stepsize, not the node-time difference, keeps the
            # replay bitwise identical to the original trajectory
            u, _, kst = rk_step(
                tableau, problem.rhs, u, theta, ts[m], sol.step_dts[i_a + m], f0=f
            )
            f = kst[-1] if tableau.fsal else np.asarray(problem.rhs(u, theta, ts[m + 1]))
            states.append(u)
            derivs.append(f)
        yield i_a, ts, states, derivs


def _segment_solution(ts, states, derivs, stats) -> Solution:
    arr = np.vstack([np.asarray(s, dtype=float) for s in states])
    der = np.vstack([np.asarray(s, dtype=float) for s in derivs])
    return Solution(
        times=np.asarray(ts),
        states=arr,
        node_times=np.asarray(ts),
        node_states=arr,
        node_derivs=der,
        dense=True,
        stats=stats,
    )


def _reverse_intervals(ts, jumps, tol):
    """Split mesh intervals at interior observation times, keep reverse order.

    Returns a list of (t_left, t_right) pairs covering [ts[0], ts[-1]],
    rightmost first, with every observation time on an endpoint.
    """
    points = set(float(t) for t in ts)
    lo, hi = ts[0], ts[-1]
    for t in jumps:
        if lo - tol < t < hi + tol:
            # snap near-node observation times onto the node
            close = [q for q in points if abs(q - t) <= tol]
            if not close:
                points.add(t)
    mesh = sorted(points)
    return [(mesh[i], mesh[i + 1]) for i in range(len(mesh) - 2, -1, -1)]


def _apply_jumps(lam, t, u_provider, loss, jumps, done, tol):
    """Costate jump at an observation time reached during reverse traversal."""
    for t_obs, idxs in jumps.items():
        if t_obs in done or abs(t_obs - t) > tol:
            continue
        u = np.asarray(u_provider(t_obs), dtype=float)
        for i in idxs:
            lam = lam + loss.grad_u_at(u, i)
        done.add(t_obs)
    return lam


def _reverse_step_config(rev: SolverConfig, h: float) -> SolverConfig:
    # one mirrored step per mesh interval for fixed-grid reverse methods;
    # adaptive reverse starts from the interval span and subdivides on its
    # own error estimate
    return replace(rev, dt=h, save="all", saveat=None, checkpoints=None)


def _integrate_costate_interval(
    problem, loss, theta, rev, t_left, t_right, lam, g, seg_sol, with_g, agg
):
    """Integrate the costate (and optionally the gradient) over one interval.

    Runs the reverse vector field on a forward clock ``sigma = t_right - t``
    so the stepper never sees a negative stepsize.  Returns the interval's
    reverse-time sub-solution for dense costate use.
    """
    h = t_right - t_left
    n = problem.n

    def rhs_rev(y, th, sigma):
        t = t_right - sigma
        u = dense_eval(seg_sol, min(max(t, t_left), t_right))
        dlam, dg = adjoint_rhs(u, y[:n], th, t, problem, loss)
        if with_g:
            return np.concatenate([-dlam, dg])
        return -dlam

    y0 = np.concatenate([lam, g]) if with_g else lam
    sub_problem = OdeProblem(rhs=rhs_rev, u0=y0, tspan=(0.0, h), theta=theta)
    sub = solve(sub_problem, _reverse_step_config(rev, h), theta=theta)
    agg.accepted_steps += sub.stats.accepted_steps
    agg.rejected_steps += sub.stats.rejected_steps
    y = sub.final_state()
    if with_g:
        return y[:n], y[n:], sub
    return y, g, sub


def _lambda_dense(sub: Solution, t_right):
    """Dense costate on an interval from its reverse-clock sub-solution."""

    def lam_at(t):
        sigma = min(max(t_right - t, sub.node_times[0]), sub.node_times[-1])
        return dense_eval(sub, sigma)

    return lam_at


# ---------------------------------------------------------------------
# discrete adjoint


def discrete_adjoint(
    problem: OdeProblem, loss, config: AdjointConfig, theta=None
) -> SensitivityResult:
    """Exact gradient of the discretized loss via reverse step recursion.

    The forward pass runs a fixed-grid explicit method and stores its
    states (or checkpoints plus replay); the reverse pass seeds the
    costate with the final observation term and recurses
    ``lam_m = (dPhi_m/du)^T lam_(m+1) + w_m (u^m - u_m^obs)``, accumulating
    ``(dPhi_m/dtheta)^T lam_(m+1)`` into the gradient.  Each transposed
    step is ``step_vjp``'s stage recursion (Hager 2000, Sandu 2006): per
    step one float re-run of the stages and one Jacobian pair per stage,
    analytic when the problem supplies them, else one multidual RHS each.
    """
    fwd = config.solver_config
    if fwd.adaptive:
        raise ValueError(
            "unsupported configuration: the discrete adjoint requires a "
            "reproducible fixed grid (euler or rk4 forward)"
        )
    if not isinstance(loss, PointwiseLoss):
        raise ValueError("the discrete adjoint expects a pointwise loss")
    theta = problem.theta if theta is None else np.asarray(theta, dtype=float)
    stats = SolverStats()
    problem = _counted(problem, stats)
    tableau = fwd.tableau
    tol = _span_tol(problem)

    sol = _forward_pass(problem, config, theta)
    stats.accepted_steps = sol.stats.accepted_steps
    node_ts = sol.node_times

    jumps_by_index: dict = {}
    for t_obs, idxs in _observation_jumps(loss, problem).items():
        idx = int(np.argmin(np.abs(node_ts - t_obs)))
        if abs(node_ts[idx] - t_obs) > tol:
            raise ValueError(
                f"observation time {t_obs} does not sit on the fixed grid"
            )
        jumps_by_index.setdefault(idx, []).extend(idxs)

    n = problem.n
    lam = np.zeros(n)
    gradient = loss_direct_gradient(loss, theta)
    peak = 0
    for base, ts, states, _ in _segments_reverse(problem, sol, theta, tableau):
        ckpt = len(sol.checkpoints) if sol.checkpoints is not None else 0
        peak = max(peak, len(ts) + ckpt)
        for m in range(len(ts) - 2, -1, -1):
            right = base + m + 1
            if right in jumps_by_index:
                u_right = np.asarray(states[m + 1], dtype=float)
                for i in jumps_by_index[right]:
                    lam = lam + loss.grad_u_at(u_right, i)
            lam, contrib = step_vjp(
                problem, tableau, states[m], theta, ts[m], sol.step_dts[base + m], lam
            )
            gradient = gradient + contrib
    if 0 in jumps_by_index:
        for i in jumps_by_index[0]:
            lam = lam + loss.grad_u_at(problem.u0, i)
    gradient = gradient + problem.initial_state_jacobian().T @ lam

    return SensitivityResult(
        gradient=np.asarray(gradient, dtype=float),
        method="discrete_adjoint",
        stats=stats,
        peak_stored_states=peak,
        metadata={"lambda0": lam},
    )


# ---------------------------------------------------------------------
# continuous adjoint


def continuous_adjoint(
    problem: OdeProblem, loss, config: AdjointConfig, theta=None
) -> SensitivityResult:
    """Continuous-adjoint gradient in the configured realization."""
    if config.variant == "discrete":
        return discrete_adjoint(problem, loss, config, theta=theta)
    theta = problem.theta if theta is None else np.asarray(theta, dtype=float)
    stats = SolverStats()
    counted = _counted(problem, stats)
    if config.variant == "backsolve":
        out = _backsolve(counted, loss, config, theta, stats)
    elif config.variant == "interpolating":
        out = _dense_reverse(counted, loss, config, theta, stats, quadrature=False)
    elif config.variant == "quadrature":
        out = _dense_reverse(counted, loss, config, theta, stats, quadrature=True)
    else:  # pragma: no cover - guarded by AdjointConfig
        raise ValueError(config.variant)
    return out


def _finish_gradient(problem, loss, theta, lam0, g):
    direct = loss_direct_gradient(loss, theta)
    return g + problem.initial_state_jacobian().T @ lam0 + direct


def _dense_reverse(problem, loss, config, theta, stats, quadrature):
    """Interpolating and quadrature variants share this reverse pass."""
    rev = config.reverse()
    tableau = config.solver_config.tableau
    tol = _span_tol(problem)
    jumps = _observation_jumps(loss, problem)
    done: set = set()

    sol = _forward_pass(problem, config, theta)
    stats.accepted_steps += sol.stats.accepted_steps
    stats.rejected_steps += sol.stats.rejected_steps

    n, p = problem.n, theta.size
    lam = np.zeros(n)
    g = np.zeros(p)
    order = config.quadrature_order
    peak_forward = 0
    lambda_nodes = 0

    for base, ts, states, derivs in _segments_reverse(problem, sol, theta, tableau):
        seg_sol = _segment_solution(ts, states, derivs, sol.stats)
        ckpt = len(sol.checkpoints) if sol.checkpoints is not None else 0
        peak_forward = max(peak_forward, len(ts) + ckpt)
        intervals = _reverse_intervals(ts, jumps, tol)
        subs = []
        for t_left, t_right in intervals:
            lam = _apply_jumps(
                lam, t_right, lambda tq: dense_eval(seg_sol, tq), loss, jumps, done, tol
            )
            lam, g, sub = _integrate_costate_interval(
                problem, loss, theta, rev, t_left, t_right, lam, g, seg_sol,
                with_g=not quadrature, agg=stats,
            )
            if quadrature:
                subs.append((t_left, t_right, sub))
                lambda_nodes += len(sub.node_times)
        if quadrature:
            for t_left, t_right, sub in subs:
                lam_at = _lambda_dense(sub, t_right)

                def integrand(tq):
                    u = dense_eval(seg_sol, tq)
                    _, dg = adjoint_rhs(u, lam_at(tq), theta, tq, problem, loss)
                    return dg

                g = g + gauss_legendre(integrand, t_left, t_right, order)

    lam = _apply_jumps(
        lam, problem.tspan[0], lambda tq: problem.u0, loss, jumps, done, tol
    )
    gradient = _finish_gradient(problem, loss, theta, lam, g)
    method = "continuous_quadrature" if quadrature else "continuous_interpolating"
    return SensitivityResult(
        gradient=np.asarray(gradient, dtype=float),
        method=method,
        stats=stats,
        peak_stored_states=peak_forward + lambda_nodes,
        metadata={"lambda0": lam, "checkpoints": config.checkpoints},
    )


def _backsolve(problem, loss, config, theta, stats):
    """Joint reverse integration of state, costate, and gradient integral.

    The forward state is re-solved backwards from its stored final value;
    when checkpoints are available the reverse state is reset to each
    snapshot, discarding accumulated reverse error.  Unstable reverse
    dynamics surface as a blowup error recommending the interpolating
    variant.
    """
    rev = config.reverse()
    tol = _span_tol(problem)
    jumps = _observation_jumps(loss, problem)
    done: set = set()
    t0, t1 = problem.tspan

    sol = _forward_pass(problem, config, theta)
    stats.accepted_steps += sol.stats.accepted_steps
    stats.rejected_steps += sol.stats.rejected_steps

    resets = {}
    if sol.checkpoints is not None:
        resets = {
            float(t): np.asarray(u, dtype=float)
            for t, u in zip(sol.checkpoints.times, sol.checkpoints.states)
        }

    stops = {t0, t1}
    stops.update(t for t in jumps if t0 - tol < t < t1 + tol)
    stops.update(t for t in resets if t0 - tol < t < t1 + tol)
    breakpoints = sorted(stops, reverse=True)

    n, p = problem.n, theta.size
    u = np.asarray(sol.final_state(), dtype=float)
    lam = np.zeros(n)
    g = np.zeros(p)

    def rhs_rev(z, th, sigma, t_ref):
        t = t_ref - sigma
        uu, ll = z[:n], z[n : 2 * n]
        du = -np.asarray(problem.rhs(uu, th, t), dtype=float)
        dlam, dg = adjoint_rhs(uu, ll, th, t, problem, loss)
        return np.concatenate([du, -dlam, dg])

    # unstable reverse dynamics manifest as unbounded reverse work, not
    # always as a clean overflow; cap the reverse budget relative to the
    # forward cost so instability fails fast instead of grinding
    reverse_budget = min(rev.max_steps, max(10_000, 20 * sol.stats.accepted_steps))
    rev_cfg = replace(
        rev, save="final", saveat=None, checkpoints=None, max_steps=reverse_budget
    )
    for t_hi, t_lo in zip(breakpoints[:-1], breakpoints[1:]):
        lam = _apply_jumps(lam, t_hi, lambda tq: u, loss, jumps, done, tol)
        if t_hi in resets:
            u = resets[t_hi]
        z0 = np.concatenate([u, lam, g])
        sub_problem = OdeProblem(
            rhs=lambda z, th, s, t_ref=t_hi: rhs_rev(z, th, s, t_ref),
            u0=z0,
            tspan=(0.0, t_hi - t_lo),
            theta=theta,
        )
        try:
            sub = solve(sub_problem, rev_cfg, theta=theta)
        except (NumericalBlowupError, StepsizeUnderflowError, NonConvergenceError) as err:
            raise NumericalBlowupError(
                "backsolve reverse integration blew up (the reversed state "
                "dynamics are unstable); use the interpolating adjoint "
                f"variant instead [{type(err).__name__}: {err}]",
                t=getattr(err, "t", None),
                dt=getattr(err, "dt", None),
            ) from err
        stats.accepted_steps += sub.stats.accepted_steps
        stats.rejected_steps += sub.stats.rejected_steps
        z = sub.final_state()
        u, lam, g = z[:n], z[n : 2 * n], z[2 * n :]

    lam = _apply_jumps(lam, t0, lambda tq: u, loss, jumps, done, tol)
    gradient = _finish_gradient(problem, loss, theta, lam, g)
    return SensitivityResult(
        gradient=np.asarray(gradient, dtype=float),
        method="continuous_backsolve",
        stats=stats,
        peak_stored_states=2 + len(resets),
        metadata={"lambda0": lam, "u0_recovered": u},
    )
