"""Built-in test problems with analytic reference solutions and gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .core import LinearStateLoss, OdeProblem


@dataclass(frozen=True)
class CatalogEntry:
    """A named problem plus its canonical loss and analytic references."""

    id: str
    problem: OdeProblem
    loss: object
    params: dict
    analytic_solution: Optional[Callable] = None   # t -> state
    analytic_gradient: Optional[Callable] = None   # () -> dL/dtheta for loss
    cfl_dt: Optional[float] = None                 # explicit-step stability bound


def make_harmonic(theta: float = 0.2, t1: float = 10.0) -> CatalogEntry:
    """Harmonic oscillator ``u'' + theta^2 u = 0`` as a first-order system.

    ``u(0) = (0, 1)`` gives ``u1 = sin(theta t)/theta``, ``u2 = cos(theta t)``;
    the canonical loss is ``u1(t1)``, whose closed-form derivative is
    ``(t1/theta) cos(theta t1) - sin(theta t1)/theta^2``.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if theta == 0.0:
        raise ValueError("theta = 0 is singular: the analytic solution degenerates")

    def rhs(u, p, t):
        return np.array([u[1], -(p[0] * p[0]) * u[0]])

    def jac_u(u, p, t):
        return np.array([[0.0, 1.0], [-(p[0] * p[0]), 0.0]])

    def jac_theta(u, p, t):
        return np.array([[0.0], [-2.0 * p[0] * u[0]]])

    problem = OdeProblem(
        rhs=rhs,
        u0=np.array([0.0, 1.0]),
        tspan=(0.0, t1),
        theta=np.array([theta]),
        rhs_jac_u=jac_u,
        rhs_jac_theta=jac_theta,
    )
    loss = LinearStateLoss([t1], [[1.0, 0.0]])

    def solution(t, th=theta):
        # numpy functions, so th may be a float, complex or dual scalar
        return np.array([np.sin(th * t) / th, np.cos(th * t)])

    def gradient(th=theta):
        return np.array([(t1 / th) * math.cos(th * t1) - math.sin(th * t1) / th ** 2])

    return CatalogEntry(
        id="harmonic",
        problem=problem,
        loss=loss,
        params={"theta": theta, "t1": t1},
        analytic_solution=solution,
        analytic_gradient=gradient,
    )


def make_predprey(a: float = 1.0, saveat_step: float = 0.1) -> CatalogEntry:
    """Predator-prey system whose solution is constant (1, 1) at ``a = 1``.

    The canonical loss sums every component of the trajectory saved on the
    grid ``0 : saveat_step : 10``, matching the setting in which an
    adaptive solver with a primal-only error norm produces a badly wrong
    gradient while sensitivity-aware control recovers the reference value.
    """
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a!r}")
    if not (math.isfinite(saveat_step) and saveat_step > 0):
        raise ValueError(f"saveat_step must be positive and finite, got {saveat_step!r}")

    def rhs(u, p, t):
        return np.array([p[0] * u[0] - u[0] * u[1], -p[0] * u[1] + u[0] * u[1]])

    def jac_u(u, p, t):
        return np.array([[p[0] - u[1], -u[0]], [u[1], u[0] - p[0]]])

    def jac_theta(u, p, t):
        return np.array([[u[0]], [-u[1]]])

    t1 = 10.0
    problem = OdeProblem(
        rhs=rhs,
        u0=np.array([1.0, 1.0]),
        tspan=(0.0, t1),
        theta=np.array([a]),
        rhs_jac_u=jac_u,
        rhs_jac_theta=jac_theta,
    )
    grid = np.round(np.arange(0.0, t1 + saveat_step / 2, saveat_step), 12)
    loss = LinearStateLoss(grid, np.ones((len(grid), 2)))

    solution = (lambda t: np.array([1.0, 1.0])) if a == 1.0 else None

    return CatalogEntry(
        id="predprey",
        problem=problem,
        loss=loss,
        params={"a": a, "saveat_step": saveat_step},
        analytic_solution=solution,
        analytic_gradient=None,
    )


def make_heat1d(n_cells: int = 64, theta: float = 0.1, t1: float = 0.5) -> CatalogEntry:
    """Method-of-lines heat equation on [0, 1] with constant diffusivity.

    Second-order central differences on ``n_cells`` uniform cells give a
    system over the ``n_cells - 1`` interior nodes with zero Dirichlet
    boundaries.  The initial profile ``sin(pi x)`` makes the solution
    separable: ``u(x, t) = exp(-pi^2 theta t) sin(pi x)``, so the canonical
    center-node loss ``u(1/2, t1)`` has the closed-form derivative
    ``-pi^2 t1 u(1/2, t1)``.  That ``analytic_gradient`` is the PDE's, not
    the limit of the method-of-lines ODE the solvers integrate: it sits
    1.63e-3 relative off the ODE's gradient at ``n_cells = 16`` and 1.0e-4
    at 64.
    """
    if isinstance(n_cells, bool) or not isinstance(n_cells, Integral):
        raise ValueError(f"n_cells must be an integer, got {n_cells!r}")
    if n_cells < 3:
        raise ValueError("need at least 3 cells for an interior stencil")
    if not math.isfinite(theta):
        raise ValueError(f"diffusivity must be finite, got {theta!r}")
    if theta <= 0:
        raise ValueError("diffusivity must be positive")
    dx = 1.0 / n_cells
    x = np.linspace(dx, 1.0 - dx, n_cells - 1)
    inv_dx2 = 1.0 / (dx * dx)

    def stencil(u, diffusivity):
        # boundary values alpha(t) = beta(t) = 0
        padded = np.concatenate(([0.0], u, [0.0]))
        return diffusivity * (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) * inv_dx2

    def rhs(u, p, t):
        return stencil(u, p[0])

    m = n_cells - 1
    lap = (
        np.diag(np.full(m - 1, 1.0), -1)
        + np.diag(np.full(m, -2.0))
        + np.diag(np.full(m - 1, 1.0), 1)
    ) * inv_dx2

    def jac_u(u, p, t):
        return p[0] * lap

    def jac_theta(u, p, t):
        return (lap @ np.asarray(u, dtype=float)).reshape(m, 1)

    problem = OdeProblem(
        rhs=rhs,
        u0=np.sin(math.pi * x),
        tspan=(0.0, t1),
        theta=np.array([theta]),
        rhs_jac_u=jac_u,
        rhs_jac_theta=jac_theta,
    )
    center = m // 2  # x = 1/2 for even n_cells
    coeff = np.zeros(m)
    coeff[center] = 1.0
    loss = LinearStateLoss([t1], [coeff])

    def solution(t, th=theta):
        return np.exp(-(np.pi * np.pi * t) * th) * np.sin(np.pi * x)

    def gradient(th=theta):
        u_c = math.exp(-math.pi ** 2 * th * t1) * math.sin(math.pi * x[center])
        return np.array([-math.pi ** 2 * t1 * u_c])

    return CatalogEntry(
        id="heat1d",
        problem=problem,
        loss=loss,
        params={"n_cells": n_cells, "theta": theta, "t1": t1},
        analytic_solution=solution,
        analytic_gradient=gradient,
        cfl_dt=dx * dx / (2.0 * theta),
    )


CATALOG = {
    "harmonic": make_harmonic,
    "predprey": make_predprey,
    "heat1d": make_heat1d,
}


def make_problem(problem_id: str, **params) -> CatalogEntry:
    if problem_id not in CATALOG:
        raise ValueError(f"unknown problem id {problem_id!r}; have {sorted(CATALOG)}")
    return CATALOG[problem_id](**params)
