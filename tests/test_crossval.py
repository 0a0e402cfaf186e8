"""Cross-validation of every gradient method on a random linear system.

For ``du/dt = theta A u`` with symmetric A the solution is the matrix
exponential ``u(T) = exp(theta T A) u0``, so both the final state and its
parameter derivative ``T A exp(theta T A) u0`` are exactly computable by
eigendecomposition.  That oracle is independent of every integration and
differentiation path in the library.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

import sensikit as sk
from sensikit.adjoint import AdjointConfig, continuous_adjoint, discrete_adjoint
from sensikit.errors import AnalyticityError, SensikitError

T_FINAL = 1.5
THETA = 0.7


@pytest.fixture(scope="module")
def linear_case():
    rng = np.random.default_rng(42)
    n = 4
    M = rng.normal(size=(n, n))
    A = 0.25 * (M + M.T)  # symmetric, mild spectrum
    u0 = rng.normal(size=n)
    w, V = np.linalg.eigh(A)

    def propagator(theta):
        return (V * np.exp(theta * T_FINAL * w)) @ V.T

    u_final = propagator(THETA) @ u0
    du_dtheta = T_FINAL * A @ u_final  # d/dtheta exp(theta T A) u0

    def rhs(u, p, t):
        return p[0] * (A @ u)

    problem = sk.OdeProblem(
        rhs=rhs,
        u0=u0,
        tspan=(0.0, T_FINAL),
        theta=np.array([THETA]),
        rhs_jac_u=lambda u, p, t: p[0] * A,
        rhs_jac_theta=lambda u, p, t: (A @ np.asarray(u, dtype=float)).reshape(n, 1),
    )
    coeffs = rng.normal(size=n)
    loss = sk.LinearStateLoss([T_FINAL], [coeffs])
    reference = float(coeffs @ du_dtheta)
    return problem, loss, reference, u_final


def test_solver_against_matrix_exponential(linear_case):
    problem, _, _, u_final = linear_case
    sol = sk.solve(problem, sk.SolverConfig(abstol=1e-12, reltol=1e-12))
    assert np.max(np.abs(sol.final_state() - u_final)) <= 1e-9


@pytest.mark.parametrize("method", [
    "centered_fd", "complex_step", "forward_ad", "forward_sensitivity",
    "discrete_adjoint", "continuous_backsolve", "continuous_interpolating",
    "continuous_quadrature",
])
def test_gradient_against_matrix_exponential(linear_case, method):
    problem, loss, reference, _ = linear_case
    cfg = sk.SolverConfig(abstol=1e-11, reltol=1e-11)
    if method == "centered_fd":
        fn = sk.direct.solver_loss_fn(problem, loss, cfg)
        grad = sk.fd_gradient(fn, problem.theta, 1e-6, scheme="centered")
        tol = 1e-6
    elif method == "complex_step":
        fn = sk.direct.solver_loss_fn(problem, loss, cfg)
        grad = sk.complexstep_gradient(fn, problem.theta, 1e-8)
        tol = 1e-8
    elif method == "forward_ad":
        grad = sk.forwardad_gradient(problem, loss, cfg).gradient
        tol = 1e-8
    elif method == "forward_sensitivity":
        grad = sk.forward_sensitivity(problem, loss, cfg).gradient
        tol = 1e-8
    elif method == "discrete_adjoint":
        grad = discrete_adjoint(
            problem, loss,
            AdjointConfig(variant="discrete",
                          solver_config=sk.SolverConfig(method="rk4", dt=1e-3)),
        ).gradient
        tol = 1e-8
    else:
        grad = continuous_adjoint(
            problem, loss,
            AdjointConfig(variant=method.removeprefix("continuous_"), solver_config=cfg),
        ).gradient
        tol = 1e-6
    assert abs(grad[0] - reference) / abs(reference) <= tol


# -- exact relations on fixed grids, over seeded random systems ---------
#
# On an rk4 or euler grid that holds the observations, forward AD
# differentiates the discrete solution exactly, and so do forward
# sensitivity (its sensitivity equations ride on the same stages), the
# discrete adjoint (the transposed stage recursion) and complex step at a
# step far below rounding.  Each must match forward AD to rounding.  The
# tier-1 run takes the short list; SENSIKIT_CROSSVAL_SEEDS sets the count.

SEEDS = range(int(os.environ.get("SENSIKIT_CROSSVAL_SEEDS", "16")))
EXACT = 1e-12


def random_system(seed):
    """A seeded small nonlinear system, its loss and its fixed-step config.

    ``f(u, theta, t) = sum_k theta_k (A_k u + b_k cos t) + c * sin(u)``,
    the forcing and sine terms each drawn in or out, with n in 2..4 and p
    in 1..3.  Returns ``(problem, jac_problem, loss, cfg)``: the problem
    without and with analytic Jacobians, a squared-error, linear or
    integrated loss observed on grid nodes, and an rk4 or euler grid.
    """
    rng = np.random.default_rng([seed, 35])
    n, p = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    A = rng.normal(scale=0.6, size=(p, n, n))
    b = rng.normal(size=(p, n)) * (rng.random() < 0.5)
    c = rng.normal(size=n) * (rng.random() < 0.5)

    def rhs(u, theta, t):
        du = c * np.sin(u)
        for k in range(p):
            du = du + theta[k] * (A[k] @ u + b[k] * math.cos(t))
        return du

    def jac_u(u, theta, t):
        return np.tensordot(theta, A, axes=1) + np.diag(c * np.cos(u))

    def jac_theta(u, theta, t):
        return np.stack([A[k] @ u + b[k] * math.cos(t) for k in range(p)], axis=1)

    u0_jacobian = rng.normal(size=(n, p)) if rng.random() < 0.25 else None
    problem = sk.OdeProblem(rhs=rhs, u0=rng.normal(size=n), tspan=(0.0, 1.0),
                            theta=rng.uniform(0.5, 1.5, p), u0_jacobian=u0_jacobian)
    jac_problem = dataclasses.replace(problem, rhs_jac_u=jac_u, rhs_jac_theta=jac_theta)

    method, dt = ("rk4", 0.1) if rng.random() < 0.5 else ("euler", 0.05)
    steps = round(1.0 / dt)
    times = np.sort(rng.choice(np.arange(1, steps + 1), size=int(rng.integers(1, 4)),
                               replace=False)) * dt
    kind = ("squared", "linear", "integrated")[int(rng.integers(3))]
    if kind == "squared":
        weights = rng.uniform(0.5, 2.0, (len(times), n) if rng.random() < 0.5 else len(times))
        loss = sk.SquaredErrorLoss(times, rng.normal(size=(len(times), n)), weights)
    elif kind == "linear":
        loss = sk.LinearStateLoss(times, rng.normal(size=(len(times), n)))
    else:
        w, e_u, e_theta = rng.uniform(0.5, 2.0, n), np.eye(n)[0], np.eye(p)[0]
        loss = sk.IntegratedLoss(
            h=lambda u, th: 0.5 * np.sum(w * u * u) + th[0] * u[0],
            dh_du=lambda u, th: w * u + th[0] * e_u,
            dh_dtheta=lambda u, th: u[0] * e_theta,
        )
    return problem, jac_problem, loss, sk.SolverConfig(method=method, dt=dt)


def _counting(problem, calls):
    rhs = problem.rhs

    def counted(u, theta, t):
        calls.append(t)
        return rhs(u, theta, t)

    return dataclasses.replace(problem, rhs=counted)


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_methods_match_forward_ad_on_fixed_grids(seed):
    problem, jac_problem, loss, cfg = random_system(seed)
    ref = sk.gradient(problem, loss, "forward_ad", cfg).gradient
    scale = np.linalg.norm(ref)
    grads = {
        "forward_sensitivity": sk.gradient(problem, loss, "forward_sensitivity", cfg),
        "forward_sensitivity, analytic Jacobians":
            sk.gradient(jac_problem, loss, "forward_sensitivity", cfg),
        "discrete_adjoint": sk.gradient(problem, loss, "discrete_adjoint", cfg),
        "discrete_adjoint, 4 checkpoints":
            sk.gradient(problem, loss, "discrete_adjoint", cfg, checkpoints=4),
    }
    calls = []
    if problem.u0_jacobian is None:
        grads["complex_step"] = sk.gradient(problem, loss, "complex_step", cfg, epsilon=1e-20)
    else:  # they perturb theta only, so they refuse before any solve
        for method in ("forward_fd", "centered_fd", "complex_step"):
            with pytest.raises(ValueError, match="u0_jacobian"):
                sk.gradient(_counting(problem, calls), loss, method, cfg)
        assert calls == []
    for name, res in grads.items():
        assert np.linalg.norm(res.gradient - ref) <= EXACT * scale, name


@pytest.mark.parametrize("seed", SEEDS)
def test_a_float_taking_rhs_is_refused_by_every_method_but_fd(seed):
    # float() of each state entry: every method that evaluates the
    # right-hand side on multiduals or complex numbers raises rather than
    # drop their tangents or imaginary parts; FD evaluates it on floats
    # only and answers, close to forward AD on the numpy-only original
    problem, _, loss, cfg = random_system(seed)
    problem = dataclasses.replace(problem, u0_jacobian=None)
    rhs = problem.rhs
    floats = dataclasses.replace(problem, rhs=lambda u, th, t: rhs(np.asarray(u, dtype=float),
                                                                  th, t))
    for method in sk.direct.METHODS:
        if method.endswith("_fd"):
            continue
        with pytest.raises(AnalyticityError):
            sk.gradient(floats, loss, method, cfg)
    ref = sk.gradient(problem, loss, "forward_ad", cfg).gradient
    fd = sk.gradient(floats, loss, "centered_fd", cfg).gradient
    assert np.linalg.norm(fd - ref) <= 1e-6 * np.linalg.norm(ref)


# -- every method's error falls with the tolerance (ROADMAP item 18) ----

# error over tol bound per method, on dopri5 at tol 1e-6, 1e-8 and 1e-10.
# Measured, in units of tol (1e-6 / 1e-8 / 1e-10), against harmonic's closed
# form and forward sensitivity at tol 1e-13 elsewhere:
#   forward sensitivity  harmonic 0.28 / 0.31 / 0.30, predprey 0.95 2.1 / 5.9 / 13.2,
#                        predprey 1 1.8 / 3.4 / 11.3, heat1d 16 0.18 / 0.66 / 0.14
#   forward AD           harmonic 0.28 / 0.31 / 0.30, predprey 0.95 2.1 / 5.9 / 13.2,
#                        predprey 1 1.8 / 3.4 / 11.3, heat1d 16 0.19 / 0.67 / 0.14
#   complex step         harmonic 1.41 / 1.33 / 1.26, predprey 0.95 3.7 / 5.9 / 14.4,
#                        (predprey 1 4.8e8 / 4.8e10 / 2.0e12, heat1d 16 43 / 155 / 57)
#   backsolve            harmonic 0.07 / 0.47 / 0.66, predprey 0.95 3.3 / 4.1 / 4.3,
#                        predprey 1 0.002 / 0.12 / 0.04; heat1d 16 raises at every tol
#   interpolating        harmonic 3.3 / 0.003 / 12.9, predprey 0.95 2.4 / 5.1 / 11.7,
#                        predprey 1 0.002 / 0.16 / 0.62, heat1d 16 0.21 / 2.2 / (21.9)
#   quadrature           harmonic 11.1 / 29.2 / 75.1, predprey 0.95 6.5 / 7.0 / 17.4,
#                        predprey 1 0.14 / 8.6 / 16.3, heat1d 16 3.4 / 5.3 / (36.7)
# Each C is twice the method's largest cell, rounded up to 30 or 150, so a
# cell fails when its error grows by more than 2x.  The cells in RAISES
# must raise a SensikitError, which is not a silent wrong gradient; any
# other cell that raises fails.  The ratio grows as tol shrinks on
# predprey and in the dense adjoints: Hermite reads of the
# forward state are one order below the step (ROADMAP item 6).  The
# bracketed cells are left out (WAITING) rather than set C by a defect:
# complex step inherits the primal-only norm's failure at a = 1 and reads
# 43-155 tol on heat1d (item 1); the dense adjoints' heat1d cells at 1e-10
# read 37 tol at interpolating's former tolerance factors (item 6).  Each
# item adds its cells once it is fixed
ERROR_OVER_TOL = {"forward_sensitivity": 30.0, "forward_ad": 30.0, "complex_step": 30.0,
                  "continuous_backsolve": 30.0, "continuous_interpolating": 30.0,
                  "continuous_quadrature": 150.0}
TOLS = (1e-6, 1e-8, 1e-10)
WAITING = {
    "complex_step": {(name, tol) for name in ("predprey 1", "heat1d 16") for tol in TOLS},
    "continuous_interpolating": {("heat1d 16", 1e-10)},
    "continuous_quadrature": {("heat1d 16", 1e-10)},
}
# backsolve cannot rebuild heat1d's forward state in reverse at any tol
RAISES = {"continuous_backsolve": {("heat1d 16", tol) for tol in TOLS}}


def _error_over_tol(ent, ref, method, tol):
    g = sk.gradient(ent.problem, ent.loss, method, sk.SolverConfig(abstol=tol, reltol=tol)).gradient
    return np.max(np.abs(g - ref)) / np.max(np.abs(ref)) / tol


@pytest.fixture(scope="module")
def tolerance_catalog():
    tight = sk.SolverConfig(abstol=1e-13, reltol=1e-13)
    harmonic = sk.make_harmonic(0.2)
    cases = [("harmonic", harmonic, np.array([(10.0 / 0.2) * math.cos(2.0)
                                              - math.sin(2.0) / 0.04]))]
    for name, ent in (("predprey 0.95", sk.make_predprey(0.95)),
                      ("predprey 1", sk.make_predprey(1.0)), ("heat1d 16", sk.make_heat1d(16))):
        cases.append((name, ent, sk.gradient(ent.problem, ent.loss, "forward_sensitivity",
                                             tight).gradient))
    return cases


@pytest.mark.parametrize("method", list(ERROR_OVER_TOL))
def test_error_stays_within_c_tol_as_tol_shrinks(method, tolerance_catalog):
    over = {}
    for name, ent, ref in tolerance_catalog:
        for tol in TOLS:
            if (name, tol) in WAITING.get(method, ()):
                continue
            if (name, tol) in RAISES.get(method, ()):
                with pytest.raises(SensikitError):
                    _error_over_tol(ent, ref, method, tol)
                continue
            ratio = _error_over_tol(ent, ref, method, tol)
            if not ratio <= ERROR_OVER_TOL[method]:
                over[name, tol] = ratio
    assert over == {}


def test_primal_only_forward_ad_fails_at_the_constant_solution(tolerance_catalog):
    # the pinned reproduction of the paper's failure mode: on predprey a = 1
    # the primal is constant, so a norm of the primal alone leaves the
    # tangent's error uncontrolled.  It reads 4.8e8 tol at 1e-6 and 100x
    # more per 2 decades of tol
    [(_, ent, ref)] = [case for case in tolerance_catalog if case[0] == "predprey 1"]
    for tol in TOLS:
        assert _error_over_tol(ent, ref, "forward_ad_primal_only", tol) > 1e8


# observed order log2(err(dt) / err(dt / 2)) of each method on harmonic,
# against its closed form.  Measured: rk4 at dt 0.2 -> 0.025 reads
# 3.97-4.06 and euler at dt 0.02 -> 0.005 reads 1.00-1.09, for every
# method but FD, whose error meets its floor (forward FD stays at 2.2e-7,
# centered FD's last rk4 ratio is 1.33).  Backsolve must raise on euler at
# dt 0.02 and 0.01 (FIXED_STEP_RAISES), and any other raise fails; an
# order needs both of its steps
FIXED_STEP_ORDERS = {"rk4": (4, (0.2, 0.1, 0.05, 0.025)), "euler": (1, (0.02, 0.01, 0.005))}
FIXED_STEP_RAISES = {("continuous_backsolve", "euler", dt) for dt in (0.02, 0.01)}


@pytest.mark.parametrize("scheme", list(FIXED_STEP_ORDERS))
def test_fixed_step_errors_fall_at_the_tableau_order(scheme):
    order, dts = FIXED_STEP_ORDERS[scheme]
    ent = sk.make_harmonic(0.2)
    ref = ent.analytic_gradient()[0]
    off = {}
    for method in sk.direct.METHODS:
        if method.endswith("_fd"):
            continue
        errors = []
        for dt in dts:
            cfg = sk.SolverConfig(method=scheme, dt=dt)
            if (method, scheme, dt) in FIXED_STEP_RAISES:
                with pytest.raises(SensikitError):
                    sk.gradient(ent.problem, ent.loss, method, cfg)
                errors.append(None)
                continue
            g = sk.gradient(ent.problem, ent.loss, method, cfg)
            errors.append(abs(g.gradient[0] - ref) / abs(ref))
        for dt, coarse, fine in zip(dts, errors, errors[1:]):
            if coarse is not None and fine is not None:
                observed = math.log2(coarse / fine)
                if not abs(observed - order) <= 0.2:
                    off[method, dt] = observed
    assert off == {}
