"""Workloads of the gradient-latency benchmark.

A workload fixes one problem and loss, the solver settings of every
method, a seeded pool of parameter vectors and a reference gradient for
each of them.  The program under test receives only the generated
problem, loss and parameters; nothing here depends on sensikit internals
beyond its public functions and the two helpers of ``sensikit.direct``
that the command line uses too (``solver_loss_fn``, ``default_epsilon``).

Methods are looked up through module attributes at call time, so the
traced run sees every call it patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

import sensikit
from sensikit import adjoint as sk_adjoint
from sensikit import direct as sk_direct
from sensikit import sensitivity as sk_sensitivity
from sensikit.errors import SensikitError  # noqa: F401  (re-exported for the client)

METHODS = (
    "centered_fd",
    "complex_step",
    "forward_ad",
    "forward_sensitivity",
    "discrete_adjoint",
    "backsolve",
    "interpolating",
    "quadrature",
)

# norm-relative error above which a gradient counts as wrong; the same
# tolerance as ``sensikit gradcheck``
CHECK_TOLERANCE = 1e-3

# tolerance of the forward-sensitivity references (lotka-volterra away from
# a = 1) and of the solve that makes the diffusion-fit data
REFERENCE_TOL = 1e-12

# the paper's reference value of the predator-prey loss gradient at a = 1
PREDPREY_PINNED_GRADIENT = 212.71042521681443


@dataclass(frozen=True)
class Settings:
    """Solver settings shared by every request of a workload."""

    tol: float                            # DOPRI5 abstol = reltol
    rk4_dt: float                         # discrete-adjoint forward stepsize
    checkpoints: Optional[int]            # continuous-adjoint storage; None keeps every node
    discrete_checkpoints: Optional[int]   # discrete-adjoint storage

    def dopri5(self) -> sensikit.SolverConfig:
        return sensikit.SolverConfig(method="dopri5", abstol=self.tol, reltol=self.tol)


@dataclass
class Case:
    """One set-up workload: the inputs the requests draw from."""

    workload: str
    problem: sensikit.OdeProblem
    loss: object
    settings: Settings
    thetas: list            # request parameter pool
    references: list        # reference gradient per pool entry


def gradient(method: str, problem, loss, theta, settings: Settings):
    """One gradient request: ``(gradient, reported rhs evaluations)``.

    Raises whatever the method raises; the caller counts a
    ``SensikitError`` as a failed request.
    """
    theta = np.asarray(theta, dtype=float)
    cfg = settings.dopri5()
    if method in ("centered_fd", "complex_step"):
        # complex step uses the FD-sized eps of gradcheck: through an
        # adaptive solver the tiny analytic-map default drowns the derivative
        eps = sk_direct.default_epsilon("centered_fd", theta)
        fn = sk_direct.solver_loss_fn(problem, loss, cfg)
        if method == "centered_fd":
            grad = sensikit.fd_gradient(fn, theta, eps, scheme="centered")
        else:
            grad = sensikit.complexstep_gradient(fn, theta, eps)
        return grad, fn.stats.rhs_evaluations
    if method == "forward_ad":
        res = sensikit.forwardad_gradient(problem, loss, cfg, theta=theta)
    elif method == "forward_sensitivity":
        res = sk_sensitivity.forward_sensitivity(problem, loss, cfg, theta=theta)
    elif method == "discrete_adjoint":
        acfg = sk_adjoint.AdjointConfig(
            variant="discrete",
            solver_config=sensikit.SolverConfig(method="rk4", dt=settings.rk4_dt),
            checkpoints=settings.discrete_checkpoints,
        )
        res = sk_adjoint.discrete_adjoint(problem, loss, acfg, theta=theta)
    elif method in ("backsolve", "interpolating", "quadrature"):
        acfg = sk_adjoint.AdjointConfig(
            variant=method, solver_config=cfg, checkpoints=settings.checkpoints
        )
        res = sk_adjoint.continuous_adjoint(problem, loss, acfg, theta=theta)
    else:
        raise ValueError(f"unknown method {method!r}")
    return res.gradient, res.stats.rhs_evaluations


def rel_error(grad, ref) -> float:
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    ref = np.atleast_1d(np.asarray(ref, dtype=float))
    return float(np.linalg.norm(grad - ref) / np.linalg.norm(ref))


def forward_sensitivity_reference(problem, loss, theta):
    cfg = sensikit.SolverConfig(method="dopri5", abstol=REFERENCE_TOL, reltol=REFERENCE_TOL)
    return sk_sensitivity.forward_sensitivity(problem, loss, cfg, theta=theta).gradient


def stratified(rng, lo, hi, count, dim=1):
    """Latin-hypercube sample: ``count`` points, one per stratum in each coordinate."""
    u = (np.arange(count)[:, None] + rng.random((count, dim))) / count
    for j in range(1, dim):
        u[:, j] = rng.permutation(u[:, j])
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------
# problems


def make_diffusion(n_cells: int, p: int):
    """Heat equation with diffusivity piecewise constant over ``p`` segments.

    Zero Dirichlet boundaries, ``n_cells - 1`` interior nodes, flux-form
    central differences; face ``j`` (between nodes ``j - 1`` and ``j``)
    takes the diffusivity of segment ``j * p // n_cells``.  The rhs is
    generic over scalar kind and no analytic Jacobians are supplied, so
    sensikit assembles them from multidual evaluations.
    """
    if n_cells % p:
        raise ValueError("segments must tile the faces evenly")
    dx = 1.0 / n_cells
    x = np.linspace(dx, 1.0 - dx, n_cells - 1)
    segment = (np.arange(n_cells) * p) // n_cells
    inv_dx2 = 1.0 / (dx * dx)

    def rhs(u, theta, t):
        padded = np.concatenate(([0.0], u, [0.0]))
        flux = theta[segment] * (padded[1:] - padded[:-1])
        return (flux[1:] - flux[:-1]) * inv_dx2

    u0 = np.sin(math.pi * x) + 0.5 * np.sin(2.0 * math.pi * x)
    return sensikit.OdeProblem(rhs=rhs, u0=u0, tspan=(0.0, 0.5), theta=np.full(p, 0.1))


def diffusion_fit_problem(rng, p: int):
    """The diffusion-fit problem and its loss against data from a seeded ``theta*``."""
    problem = make_diffusion(16, p)
    theta_star = rng.uniform(0.05, 0.15, p)
    times = np.linspace(0.05, 0.5, 10)
    cfg = sensikit.SolverConfig(
        method="dopri5", abstol=REFERENCE_TOL, reltol=REFERENCE_TOL, saveat=times
    )
    data = sensikit.solve(problem, cfg, theta=theta_star).states
    return problem, sensikit.SquaredErrorLoss(times, data)


def diffusion_fit_gradient(problem, loss, theta) -> np.ndarray:
    """Exact gradient of the squared-error loss of the diffusion-fit system.

    The rhs is ``A(theta) u`` with ``A = sum_j theta_j A_j`` symmetric, so
    with ``A = V Lambda V^T`` the state is ``u(t) = V exp(Lambda t) V^T u0``
    and its derivative is ``du/dtheta_j = V ((V^T A_j V) o Phi(t)) V^T u0``,
    ``Phi_ab = (exp(l_a t) - exp(l_b t)) / (l_a - l_b)`` (the divided
    difference of the exponential).  ``A_j`` is read off the rhs itself by
    unit inputs.  This is the limit of the discretized system the solvers
    integrate.
    """
    n, p = problem.n, problem.p
    eye_u, eye_p = np.eye(n), np.eye(p)
    parts = [np.column_stack([problem.rhs(eye_u[i], eye_p[j], 0.0) for i in range(n)])
             for j in range(p)]
    lam, vec = np.linalg.eigh(sum(th * a for th, a in zip(theta, parts)))
    parts = [vec.T @ a @ vec for a in parts]
    c0 = vec.T @ problem.u0
    grad = np.zeros(p)
    for t, target, w in zip(loss.times, loss.targets, loss.weights):
        x = np.subtract.outer(lam, lam) * t
        safe = np.where(x == 0.0, 1.0, x)
        phi = t * np.exp(lam * t)[None, :] * np.where(x == 0.0, 1.0, np.expm1(safe) / safe)
        residual = w * (vec @ (np.exp(lam * t) * c0) - target)
        for j, a in enumerate(parts):
            grad[j] += residual @ (vec @ ((a * phi) @ c0))
    return grad


def heat_semidiscrete_gradient(problem, loss, theta) -> np.ndarray:
    """Exact gradient of the method-of-lines heat loss ``c . u(t1)``.

    ``u(t) = V exp(theta Lambda t) V^T u0`` with ``L = V Lambda V^T`` the
    Dirichlet second-difference matrix, so the derivative is
    ``c . V (t1 Lambda exp(theta Lambda t1)) V^T u0``.  This is the limit of
    the discretized system the solvers integrate, not of the PDE.
    """
    m = problem.n
    inv_dx2 = float((m + 1) ** 2)
    lap = (np.diag(np.full(m - 1, 1.0), -1) + np.diag(np.full(m, -2.0))
           + np.diag(np.full(m - 1, 1.0), 1)) * inv_dx2
    lam, vec = np.linalg.eigh(lap)
    (t1,) = loss.times
    c = loss.coeffs[0] * loss.weights[0]
    th = float(np.asarray(theta).reshape(-1)[0])
    return np.array([c @ vec @ (t1 * lam * np.exp(th * lam * t1) * (vec.T @ problem.u0))])


# ---------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    """A named workload: settings plus the seeded construction of its case.

    The parameter pool holds ``fixed`` entries followed by ``strata``
    Latin-hypercube draws over ``bounds``; ``strata`` is a power of two.
    """

    name: str
    settings: Settings
    bounds: tuple
    strata: int
    fixed: tuple = ()

    def build(self, rng) -> Case:
        if self.name == "lotka-volterra":
            entry = sensikit.make_predprey(1.0)
            problem, loss = entry.problem, entry.loss
        elif self.name == "heat":
            entry = sensikit.make_heat1d(n_cells=32)
            problem, loss = entry.problem, entry.loss
        else:
            problem, loss = diffusion_fit_problem(rng, DIFFUSION_FIT_P)
        thetas = [np.array(f, dtype=float) for f in self.fixed]
        thetas += list(stratified(rng, *self.bounds, self.strata, dim=problem.p))
        return Case(self.name, problem, loss, self.settings, thetas,
                    [self.reference(problem, loss, th) for th in thetas])

    def reference(self, problem, loss, theta):
        if self.name == "heat":
            return heat_semidiscrete_gradient(problem, loss, theta)
        if self.name == "diffusion-fit":
            return diffusion_fit_gradient(problem, loss, theta)
        if self.name == "lotka-volterra" and float(theta[0]) == 1.0:
            return np.array([PREDPREY_PINNED_GRADIENT])
        return forward_sensitivity_reference(problem, loss, theta)

    def order(self, rng) -> list:
        """Pool indices of one pass: the fixed entries, then the strata.

        Strata come in bit-reversed order XOR a seeded mask, so every
        prefix of 2^j rounds, such as the traced run's, spreads evenly over
        the range.
        """
        bits = self.strata.bit_length() - 1
        mask = int(rng.integers(self.strata))
        base = len(self.fixed)
        return list(range(base)) + [
            base + (int(format(i, f"0{bits}b")[::-1], 2) ^ mask) for i in range(self.strata)
        ]

    def midpoint(self, p) -> np.ndarray:
        """Centre of the parameter range, where the warm-up requests run."""
        return np.full(p, 0.5 * (self.bounds[0] + self.bounds[1]))


DIFFUSION_FIT_P = 8

# Why each workload: lotka-volterra has a tiny float state (n=2, p=1), so
# per-step Python overhead in rk_step and scaled_error dominates, and its
# 101 observations load dense output and the adjoint jumps.  heat (n=31,
# analytic Jacobians) is dominated by multidual arithmetic in forward AD
# and the step VJPs and runs every adjoint from checkpoints.
# diffusion-fit (p=8, no analytic Jacobians) makes forward methods pay per
# parameter while adjoints do not, and sends Jacobian assembly down its
# multidual path.  Its discrete adjoint replays from checkpoints, which
# keeps the replay layer in the timed workloads without heat; its
# continuous adjoints keep every node, so backsolve's reconstruction
# drift still shows (checkpoint resets would repair it here).
WORKLOADS = {
    "lotka-volterra": Workload(
        "lotka-volterra",
        Settings(tol=1e-8, rk4_dt=0.01, checkpoints=None, discrete_checkpoints=None),
        bounds=(0.9, 1.1), strata=8, fixed=((1.0,),),
    ),
    "heat": Workload(
        "heat", Settings(tol=1e-6, rk4_dt=1e-3, checkpoints=8, discrete_checkpoints=8),
        bounds=(0.05, 0.2), strata=8,
    ),
    "diffusion-fit": Workload(
        "diffusion-fit",
        Settings(tol=1e-8, rk4_dt=0.005, checkpoints=None, discrete_checkpoints=8),
        bounds=(0.05, 0.15), strata=16,
    ),
}


def instrument(case: Case, wrap) -> Case:
    """The case with its problem's user callbacks passed through ``wrap``.

    ``wrap(kind, fn)`` returns the replacement for the callback ``fn``;
    ``kind`` is ``"rhs"`` or ``"jac"``.  Absent Jacobians stay absent.
    """
    p = case.problem
    problem = replace(
        p,
        rhs=wrap("rhs", p.rhs),
        rhs_jac_u=None if p.rhs_jac_u is None else wrap("jac", p.rhs_jac_u),
        rhs_jac_theta=None if p.rhs_jac_theta is None else wrap("jac", p.rhs_jac_theta),
    )
    return replace(case, problem=problem)
