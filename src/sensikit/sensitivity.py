"""Forward-mode gradients: forward sensitivity and forward AD on one engine.

``forward_sensitivity`` and ``forwardad_gradient`` both run
``_forward_mode``, which steps the float state ``z = (u, S)``, the state
then the columns of ``S = du/dtheta``, through the solver's ``_march``; the
packed field it steps is built there.  Each stage's ``dS/dt`` is the
tangent ``J_u S + J_theta`` of the sensitivity equations, from
``jacobian_assembly``: for forward sensitivity the analytic product where
the problem supplies both Jacobians, else, and always for forward AD, one
multidual call of the right-hand side of arity p.  Forward AD evaluates
the loss terms on the multiduals ``(u, S)`` too.  A stage combination does
to the packed state, coordinate by coordinate, what it does to a dual
state, so this is forward AD of the solver's own arithmetic (Walther 2007,
Comput. Optim. Appl. 36).  The error norm over ``z`` is the joint
primal/tangent norm; forward AD under ``PRIMAL_ONLY`` narrows it to ``u``.

``jacobian_assembly`` is the one place a derivative of ``f`` is built,
for these equations and for every adjoint; each caller names the parts it
reads.  A cheaper route to the Jacobians, such as column compression of a
sparse Jacobian, is a change to that function alone.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from . import dual
from .core import OdeProblem, SensitivityResult, SolverStats, _counted, check_request, dense_eval
from .errors import AnalyticityError
from .solver import PRIMAL_ONLY, SolverConfig, _march


@lru_cache(maxsize=None)
def _identity(k):
    """The k-by-k identity every seed of arity k shares: read-only, as no
    multidual tangent is written in place."""
    eye = np.eye(k)
    eye.setflags(write=False)
    return eye


def _dual_rhs(problem: OdeProblem, u, theta, t, arity):
    """``problem.rhs`` at multidual ``u``, ``theta`` as multiduals of ``arity``, raising the
    ``AnalyticityError`` that numpy wraps in a ``ValueError`` (``float()`` of an entry)."""
    try:
        return dual.as_dual(problem.rhs(u, theta, t), arity)
    except ValueError as err:
        if isinstance(err.__cause__, AnalyticityError):
            raise err.__cause__ from None
        raise


def jacobian_assembly(problem: OdeProblem, u, theta, t, *, jac_u=True, jac_theta=True, f=False,
                      u_theta=None):
    """The parts ``(J_u, J_theta, f)`` of the right-hand side at a point its caller reads.

    The one place a derivative of ``f`` is built.  ``jac_u``, ``jac_theta``
    and ``f`` say which parts are read; a part not read comes back None
    and is neither evaluated nor seeded.  A Jacobian the problem supplies
    is its analytic one, returned verbatim; the missing Jacobians that are
    read come from one multidual right-hand side seeded in exactly their
    directions.  ``f`` is that call's value coordinate or, when no such
    call ran, one plain right-hand side.  ``u`` and ``theta`` are float arrays.

    ``u_theta``, an n-by-p ``du/dtheta``, asks for the forward tangent
    ``J_u u_theta + J_theta`` in the ``J_theta`` place instead, with ``J_u``
    None and the ``jac_*`` flags unread: the analytic product where the
    problem supplies both Jacobians, else one multidual call of arity p,
    ``u`` seeded by ``u_theta`` and ``theta`` by the identity.
    """
    if u_theta is not None:
        if problem.rhs_jac_u is None or problem.rhs_jac_theta is None:
            p = theta.size
            th_in = dual.seed_state(theta, _identity(p), p)
            out = _dual_rhs(problem, dual.seed_state(u, u_theta, p), th_in, t, p)
            return None, out.tangents, out.value if f else None
        jac_u = jac_theta = True
    seed_u = jac_u and problem.rhs_jac_u is None
    seed_theta = jac_theta and problem.rhs_jac_theta is None
    J_u = J_theta = value = None
    if seed_u or seed_theta:
        col = u.size if seed_u else 0  # the tangents' first theta column
        arity = col + (theta.size if seed_theta else 0)
        eye = _identity(arity)
        u_in = dual.seed_state(u, eye[:col], arity) if seed_u else u
        th_in = dual.seed_state(theta, eye[col:], arity) if seed_theta else theta
        out = _dual_rhs(problem, u_in, th_in, t, arity)
        J_u = out.tangents[:, :col] if seed_u else None
        J_theta = out.tangents[:, col:] if seed_theta else None
        value = out.value
    if jac_u and not seed_u:
        J_u = np.asarray(problem.rhs_jac_u(u, theta, t), dtype=float)
    if jac_theta and not seed_theta:
        J_theta = np.asarray(problem.rhs_jac_theta(u, theta, t), dtype=float)
    if f and value is None:
        value = np.asarray(problem.rhs(u, theta, t), dtype=float)
    if u_theta is not None:
        J_u, J_theta = None, J_u @ u_theta + J_theta
    return J_u, J_theta, value if f else None


def _forward_mode(problem: OdeProblem, loss, config: SolverConfig, theta=None, *,
                  ad=False) -> SensitivityResult:
    """Forward sensitivity, or with ``ad`` forward AD: one packed float solve.

    Forward AD drops the analytic Jacobians, so every stage tangent comes
    from the multidual call of the user's right-hand side, differentiates
    each observation's loss term on the multidual ``(u, S)``, and under
    ``config.norm_mode == PRIMAL_ONLY`` controls the error of the state
    alone, a choice the result's ``metadata["warning"]`` flags.  Forward
    sensitivity keeps the joint norm whatever the mode.  The result
    carries ``S`` at the solve's save times.
    """
    problem, loss, theta = check_request(problem, loss, theta, config.saveat)
    n, p = problem.n, theta.size
    if ad:
        problem = replace(problem, rhs_jac_u=None, rhs_jac_theta=None)
    primal_only = ad and config.norm_mode == PRIMAL_ONLY
    metadata = {"warning": "primal-only error norm ignores tangent error; the gradient "
                           "may not converge as tolerances shrink"} if primal_only else {}
    stats = SolverStats()
    counted = _counted(problem, stats)

    def field(z, th, t):
        # z is the state, then the columns of S parameter by parameter
        u, S = z[:n], z[n:].reshape((n, p), order="F")
        _, dS, du = jacobian_assembly(counted, u, th, t, f=True, u_theta=S)
        return np.concatenate([du, dS.ravel(order="F")])

    z0 = np.concatenate([problem.u0, problem.initial_state_jacobian().ravel(order="F")])
    sol = _march(field, z0, theta, *problem.tspan, config.tableau, stats, config, keep="all",
                 saveat=config.saveat, norm_n=n if primal_only else None)

    gradient, loss_d = np.zeros(p), 0.0
    for i, z in enumerate(dense_eval(sol, loss.times)):
        u, S = z[:n], z[n:].reshape((n, p), order="F")
        if ad:  # the loss's own arithmetic, on multiduals
            loss_d = loss_d + loss.value_at(dual.seed_state(u, S, p), i)
        else:
            gradient = gradient + loss.grad_u_at(u, i) @ S
    if ad:  # a copy: the loss dual's tangents may be shared with other duals
        gradient = np.array(dual.tangents(loss_d, p), dtype=float)

    # row k is S at times[k]: every saved state sliced as the field slices z
    traj = np.ascontiguousarray(sol.states[:, n:].reshape(-1, p, n).transpose(0, 2, 1))
    return SensitivityResult(
        gradient=gradient,
        method="forward_ad" if ad else "forward_sensitivity",
        stats=stats,
        sensitivity_trajectory=traj,
        trajectory_times=np.asarray(sol.times),
        peak_stored_states=len(sol.node_times),
        metadata=metadata,
    )


def forward_sensitivity(
    problem: OdeProblem, loss, config: SolverConfig, theta=None
) -> SensitivityResult:
    """Gradient of a loss by jointly integrating the sensitivity equations.

    The returned result carries the sensitivity trajectory at the solve's
    save times alongside the assembled gradient
    ``sum_i (dL/du)(t_i) s(t_i)``.
    """
    return _forward_mode(problem, loss, config, theta)


def forwardad_gradient(
    problem: OdeProblem, loss, config: SolverConfig, theta=None
) -> SensitivityResult:
    """Gradient by forward-mode AD of the solver and the loss.

    Multidual right-hand sides and loss terms give the exact gradient of
    whatever the discrete solver computed.  Under the joint error norm the
    adaptive result converges to the true gradient as the tolerances
    shrink; the primal-only norm is kept to reproduce its known failure
    mode and is flagged in the result metadata.
    """
    return _forward_mode(problem, loss, config, theta, ad=True)
