"""Continuous forward sensitivity analysis.

Augments the ODE with the n-by-p sensitivity equations
``ds/dt = (df/du) s + df/dtheta`` and solves state and sensitivity jointly,
so the adaptive controller holds both to the same tolerance: the scaled
norm over the flattened augmented state is exactly the joint
primal/tangent norm by construction.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import dual
from .core import (
    IntegratedLoss,
    OdeProblem,
    PointwiseLoss,
    SensitivityResult,
    SolverStats,
    state_at,
)
from .solver import SolverConfig, solve


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


def jacobian_assembly(problem: OdeProblem, u, theta, t):
    """Jacobians ``df/du`` and ``df/dtheta`` at a point along the trajectory.

    Analytic Jacobians supplied on the problem are returned verbatim; a
    missing one is assembled column-by-column from a single multidual
    right-hand-side evaluation seeded in the needed directions.
    """
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n, p = u.size, theta.size
    jac_u = problem.rhs_jac_u
    jac_theta = problem.rhs_jac_theta
    if jac_u is not None and jac_theta is not None:
        return (
            np.asarray(jac_u(u, theta, t), dtype=float),
            np.asarray(jac_theta(u, theta, t), dtype=float),
        )
    # seed only the directions we cannot get analytically
    need_u = jac_u is None
    need_theta = jac_theta is None
    arity = (n if need_u else 0) + (p if need_theta else 0)
    eye = np.eye(arity)
    col = n if need_u else 0
    u_in = dual.seed_state(u, eye[:n], arity) if need_u else u
    th_in = dual.seed_state(theta, eye[col:], arity) if need_theta else theta
    jac = dual.jacobian_from_duals(np.asarray(problem.rhs(u_in, th_in, t)), arity)
    J_u = jac[:, :n] if need_u else np.asarray(jac_u(u, theta, t), dtype=float)
    J_theta = jac[:, col:] if need_theta else np.asarray(jac_theta(u, theta, t), dtype=float)
    return J_u, J_theta


def sensitivity_rhs(u, s, theta, t, problem: OdeProblem):
    """Time derivatives of state and sensitivity: ``(f, (df/du) s + df/dtheta)``."""
    J_u, J_theta = jacobian_assembly(problem, u, theta, t)
    du = np.asarray(problem.rhs(np.asarray(u, dtype=float), np.asarray(theta, dtype=float), t), dtype=float)
    return du, J_u @ s + J_theta


def _pack(u, s):
    # fixed layout: state first, then sensitivity columns parameter-by-parameter
    return np.concatenate([u, s.ravel(order="F")])


def _unpack(z, n, p):
    return z[:n], z[n:].reshape((n, p), order="F")


def augmented_problem(problem: OdeProblem) -> OdeProblem:
    """The ``n (p + 1)``-dimensional joint state/sensitivity problem."""
    n, p = problem.n, problem.p

    def rhs(z, theta, t):
        u, s = _unpack(z, n, p)
        du, ds = sensitivity_rhs(u, s, theta, t, problem)
        return _pack(du, ds)

    return OdeProblem(
        rhs=rhs,
        u0=_pack(problem.u0, problem.initial_state_jacobian()),
        tspan=problem.tspan,
        theta=problem.theta,
    )


def forward_sensitivity(
    problem: OdeProblem, loss, config: SolverConfig, theta=None
) -> SensitivityResult:
    """Gradient of a loss by jointly integrating the sensitivity equations.

    The returned result carries the sensitivity trajectory at the solve's
    save times alongside the assembled gradient
    ``sum_i (dL/du)(t_i) s(t_i) + dL/dtheta``.
    """
    if not isinstance(loss, (*PointwiseLoss, IntegratedLoss)):
        raise TypeError(f"unknown loss specification {type(loss).__name__}")
    theta = problem.theta if theta is None else np.asarray(theta, dtype=float)
    n, p = problem.n, theta.size
    stats = SolverStats()
    aug = augmented_problem(_counted(problem, stats))

    sol = solve(aug, config, theta=theta)
    stats.accepted_steps = sol.stats.accepted_steps
    stats.rejected_steps = sol.stats.rejected_steps

    gradient = np.zeros(p)
    if isinstance(loss, PointwiseLoss):
        for i, t in enumerate(loss.times):
            z = state_at(sol, t)
            u, s = _unpack(z, n, p)
            gradient = gradient + loss.grad_u_at(u, i) @ s
    else:
        # trapezoid of dh/du s + dh/dtheta over the saved nodes
        vals = []
        for z in sol.states:
            u, s = _unpack(z, n, p)
            vals.append(
                np.asarray(loss.dh_du(u, theta), dtype=float) @ s
                + np.asarray(loss.dh_dtheta(u, theta), dtype=float)
            )
        ts = sol.times
        for k in range(len(ts) - 1):
            gradient = gradient + 0.5 * (ts[k + 1] - ts[k]) * (vals[k] + vals[k + 1])

    traj = np.array([_unpack(z, n, p)[1] for z in sol.states])
    return SensitivityResult(
        gradient=np.asarray(gradient, dtype=float),
        method="forward_sensitivity",
        stats=stats,
        sensitivity_trajectory=traj,
        trajectory_times=np.asarray(sol.times),
        peak_stored_states=len(sol.times),
    )
