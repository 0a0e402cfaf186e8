import dataclasses
import math

import numpy as np
import pytest

import sensikit as sk
from sensikit import dual
from sensikit.adjoint import (
    AdjointConfig,
    adjoint_rhs,
    continuous_adjoint,
    discrete_adjoint,
    gauss_legendre,
    step_vjp,
)
from sensikit.errors import NumericalBlowupError
from sensikit.tableaus import DOPRI5, EULER, RK4

ANALYTIC = (10.0 / 0.2) * math.cos(2.0) - math.sin(2.0) / 0.04


def tight():
    return sk.SolverConfig(abstol=1e-10, reltol=1e-10)


# -- gauss_legendre ----------------------------------------------------


def test_gauss_legendre_exact_for_cubics():
    val = gauss_legendre(lambda x: np.array([x * x]), 0.0, 1.0, 2)
    assert val[0] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_gauss_legendre_weights_sum_to_span():
    val = gauss_legendre(lambda x: np.array([1.0]), 0.0, 1.0, 5)
    assert val[0] == pytest.approx(1.0, rel=1e-15)


def test_gauss_legendre_sine():
    # 7-node truncation bound: pi^15 (7!)^4 / (15 (14!)^3) = 1.87e-12
    val = gauss_legendre(lambda x: np.array([math.sin(x)]), 0.0, math.pi, 7)
    assert val[0] == pytest.approx(2.0, abs=2e-12)


def test_gauss_legendre_validation():
    with pytest.raises(ValueError):
        gauss_legendre(lambda x: x, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        gauss_legendre(lambda x: x, 0.0, 1.0, 1)


# -- step_vjp ----------------------------------------------------------


def test_step_vjp_euler_linear():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(2, 2))

    def rhs(u, p, t):
        return A @ u

    prob = sk.OdeProblem(rhs=rhs, u0=np.ones(2), tspan=(0.0, 1.0), theta=np.zeros(1))
    lam = rng.normal(size=2)
    dt = 0.125
    lam_prop, contrib = step_vjp(prob, EULER, np.array([0.3, -0.7]), prob.theta, 0.0, dt, lam)
    expect = (np.eye(2) + dt * A).T @ lam
    assert np.allclose(lam_prop, expect, atol=1e-13)
    assert np.allclose(contrib, 0.0)


def test_step_vjp_zero_costate():
    ent = sk.make_harmonic(0.2)
    lam_prop, contrib = step_vjp(
        ent.problem, RK4, np.array([1.0, 0.0]), ent.problem.theta, 0.0, 0.1, np.zeros(2)
    )
    assert np.array_equal(lam_prop, np.zeros(2))
    assert np.array_equal(contrib, np.zeros(1))


def test_step_vjp_matches_fd_of_step_map():
    ent = sk.make_harmonic(0.2)
    u = np.array([0.8, -0.3])
    lam = np.array([1.3, 0.4])
    dt = 0.05
    lam_prop, contrib = step_vjp(ent.problem, RK4, u, ent.problem.theta, 0.0, dt, lam)

    def step_map(uu, th):
        out, _, _ = sk.rk_step(RK4, ent.problem.rhs, uu, th, 0.0, dt)
        return out

    h = 1e-7
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (step_map(u + e, ent.problem.theta) - step_map(u - e, ent.problem.theta)) / (2 * h)
        assert lam_prop[j] == pytest.approx(float(fd @ lam), rel=1e-6, abs=1e-8)
    fd_t = (
        step_map(u, ent.problem.theta + 1e-7) - step_map(u, ent.problem.theta - 1e-7)
    ) / 2e-7
    assert contrib[0] == pytest.approx(float(fd_t @ lam), rel=1e-6, abs=1e-8)


def multidual_step_vjp(problem, tableau, u, theta, t, dt, lam):
    """Reference: the step's full Jacobian from multidual seeds pushed through it."""
    n, p = u.size, theta.size
    eye = np.eye(n + p)
    u_d = np.array([dual.MultiDual(u[i], eye[i]) for i in range(n)], dtype=object)
    th_d = np.array([dual.MultiDual(theta[j], eye[n + j]) for j in range(p)], dtype=object)
    u_next, _, _ = sk.rk_step(tableau, problem.rhs, u_d, th_d, t, dt)
    jac = dual.jacobian_from_duals(u_next, n + p)
    return jac[:, :n].T @ lam, jac[:, n:].T @ lam


@pytest.mark.parametrize("tableau", [EULER, RK4, DOPRI5], ids=["euler", "rk4", "dopri5"])
@pytest.mark.parametrize("jacobians", ["analytic", "multidual"])
def test_step_vjp_matches_multidual_step_push(tableau, jacobians):
    problem = sk.make_harmonic(0.2).problem
    if jacobians == "multidual":
        problem = dataclasses.replace(problem, rhs_jac_u=None, rhs_jac_theta=None)
    u = np.array([0.8, -0.3])
    lam = np.array([1.3, 0.4])
    got = step_vjp(problem, tableau, u, problem.theta, 0.7, 0.05, lam)
    want = multidual_step_vjp(problem, tableau, u, problem.theta, 0.7, 0.05, lam)
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)


def test_step_vjp_non_finite_stage_raises():
    def rhs(u, p, t):
        return u if t == 0.0 else u * np.nan

    prob = sk.OdeProblem(rhs=rhs, u0=np.ones(2), tspan=(0.0, 1.0), theta=np.zeros(1))
    with pytest.raises(NumericalBlowupError):
        step_vjp(prob, RK4, prob.u0, prob.theta, 0.0, 0.1, np.ones(2))


def test_discrete_adjoint_heat1d_64_matches_forward_sensitivity():
    # 63 states: the full-step multidual push took seconds here
    ent = sk.make_heat1d(64)
    cfg = sk.SolverConfig(method="rk4", dt=1e-3)
    da = discrete_adjoint(ent.problem, ent.loss, AdjointConfig(variant="discrete", solver_config=cfg))
    fs = sk.forward_sensitivity(ent.problem, ent.loss, cfg)
    assert np.linalg.norm(da.gradient - fs.gradient) <= 1e-10 * np.linalg.norm(fs.gradient)


def test_discrete_adjoint_counts_jacobian_calls():
    ent = sk.make_harmonic(0.2)
    cfg = AdjointConfig(variant="discrete", solver_config=sk.SolverConfig(method="rk4", dt=0.1))
    res = discrete_adjoint(ent.problem, ent.loss, cfg)
    steps = res.stats.accepted_steps
    # a Jacobian pair per stage on the reverse pass
    assert res.stats.jacobian_evaluations == 2 * 4 * steps
    stripped = dataclasses.replace(ent.problem, rhs_jac_u=None, rhs_jac_theta=None)
    bare = discrete_adjoint(stripped, ent.loss, cfg)
    assert bare.stats.jacobian_evaluations == 0
    # the multidual RHS per stage replaces the Jacobian pair
    assert bare.stats.rhs_evaluations == res.stats.rhs_evaluations + 4 * steps
    assert bare.gradient[0] == pytest.approx(res.gradient[0], rel=1e-13)


# -- adjoint_rhs -------------------------------------------------------


def test_adjoint_rhs_zero_costate():
    loss = sk.IntegratedLoss(
        h=lambda u, th: 0.0,
        dh_du=lambda u, th: np.zeros(2),
        dh_dtheta=lambda u, th: np.array([2.5]),
    )
    ent = sk.make_harmonic(0.2)
    dlam, dg = adjoint_rhs(np.array([1.0, 0.0]), np.zeros(2), ent.problem.theta, 0.0, ent.problem, loss)
    assert np.array_equal(dlam, np.zeros(2))
    assert np.allclose(dg, [2.5])


def test_adjoint_rhs_linear_transpose():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(3, 3))
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: A @ u, u0=np.ones(3), tspan=(0.0, 1.0), theta=np.zeros(1)
    )
    lam = rng.normal(size=3)
    loss = sk.LinearStateLoss([1.0], [[1.0, 0.0, 0.0]])
    dlam, _ = adjoint_rhs(np.ones(3), lam, prob.theta, 0.0, prob, loss)
    assert np.allclose(dlam, -A.T @ lam, atol=1e-12)


def test_adjoint_rhs_harmonic_transpose():
    ent = sk.make_harmonic(0.2)
    lam = np.array([2.0, -1.0])
    dlam, dg = adjoint_rhs(np.array([1.0, 0.0]), lam, ent.problem.theta, 0.0, ent.problem, ent.loss)
    J = np.array([[0.0, 1.0], [-0.04, 0.0]])
    assert np.allclose(dlam, -J.T @ lam)
    assert np.allclose(dg, np.array([[0.0, -0.4]]) @ lam)


# -- discrete adjoint --------------------------------------------------


def test_discrete_adjoint_zero_weights():
    ent = sk.make_harmonic(0.2)
    loss = sk.SquaredErrorLoss([10.0], [[0.0, 0.0]], weights=[0.0])
    cfg = AdjointConfig(variant="discrete", solver_config=sk.SolverConfig(method="euler", dt=0.1))
    res = discrete_adjoint(ent.problem, loss, cfg)
    assert np.array_equal(res.gradient, np.zeros(1))
    assert np.array_equal(res.metadata["lambda0"], np.zeros(2))


def test_discrete_adjoint_rejects_adaptive_forward():
    ent = sk.make_harmonic(0.2)
    with pytest.raises(ValueError, match="unsupported config"):
        discrete_adjoint(ent.problem, ent.loss, AdjointConfig(variant="discrete", solver_config=sk.SolverConfig()))


def test_discrete_adjoint_requires_grid_aligned_observations():
    ent = sk.make_harmonic(0.2)
    loss = sk.LinearStateLoss([9.95001], [[1.0, 0.0]])
    cfg = AdjointConfig(variant="discrete", solver_config=sk.SolverConfig(method="euler", dt=0.1))
    with pytest.raises(ValueError, match="fixed grid"):
        discrete_adjoint(ent.problem, loss, cfg)


def test_discrete_adjoint_euler_matches_forward_ad():
    ent = sk.make_harmonic(0.2)
    fwd = sk.SolverConfig(method="euler", dt=0.001)
    res = discrete_adjoint(ent.problem, ent.loss, AdjointConfig(variant="discrete", solver_config=fwd))
    ad = sk.forwardad_gradient(ent.problem, ent.loss, fwd)
    assert abs(res.gradient[0] - ad.gradient[0]) / abs(ad.gradient[0]) <= 1e-10
    # euler discretization error dominates the gap to the analytic value
    assert res.gradient[0] == pytest.approx(-43.54, abs=0.2)
    assert res.gradient[0] != pytest.approx(ANALYTIC, abs=1e-6)


@pytest.mark.parametrize("make,dt", [
    (lambda: sk.make_harmonic(0.2), 0.025),
    (lambda: sk.make_predprey(1.0), 0.02),
    (lambda: sk.make_heat1d(8, 0.1), 0.025),
])
@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_discrete_adjoint_equals_forward_ad_all_problems(make, dt, method):
    ent = make()
    fwd = sk.SolverConfig(method=method, dt=dt)
    res = discrete_adjoint(ent.problem, ent.loss, AdjointConfig(variant="discrete", solver_config=fwd))
    ad = sk.forwardad_gradient(ent.problem, ent.loss, fwd)
    scale = np.linalg.norm(ad.gradient)
    assert np.linalg.norm(res.gradient - ad.gradient) / scale <= 1e-10


def test_discrete_adjoint_checkpoint_replay_matches_full():
    ent = sk.make_harmonic(0.2)
    fwd = sk.SolverConfig(method="rk4", dt=0.01)
    full = discrete_adjoint(ent.problem, ent.loss, AdjointConfig(variant="discrete", solver_config=fwd))
    ck = discrete_adjoint(
        ent.problem, ent.loss,
        AdjointConfig(variant="discrete", solver_config=fwd, checkpoints=5),
    )
    assert ck.gradient[0] == full.gradient[0]
    assert ck.peak_stored_states < full.peak_stored_states


# -- continuous adjoint ------------------------------------------------


def test_interpolating_adjoint_harmonic():
    ent = sk.make_harmonic(0.2)
    res = continuous_adjoint(ent.problem, ent.loss, AdjointConfig(variant="interpolating", solver_config=tight()))
    assert res.gradient[0] == pytest.approx(-43.539778, abs=1e-5)
    assert res.gradient[0] == pytest.approx(ANALYTIC, rel=1e-6)


def test_quadrature_adjoint_matches_interpolating():
    ent = sk.make_harmonic(0.2)
    interp = continuous_adjoint(ent.problem, ent.loss, AdjointConfig(variant="interpolating", solver_config=tight()))
    quad = continuous_adjoint(
        ent.problem, ent.loss,
        AdjointConfig(variant="quadrature", solver_config=tight(), quadrature_order=7),
    )
    assert quad.gradient[0] == pytest.approx(ANALYTIC, rel=1e-6)
    assert abs(quad.gradient[0] - interp.gradient[0]) <= 1e-7 * abs(ANALYTIC)


def test_backsolve_adjoint_harmonic():
    ent = sk.make_harmonic(0.2)
    res = continuous_adjoint(ent.problem, ent.loss, AdjointConfig(variant="backsolve", solver_config=tight()))
    assert res.gradient[0] == pytest.approx(ANALYTIC, rel=1e-6)


def test_backsolve_blowup_recommends_interpolating():
    ent = sk.make_heat1d(32, 0.1)
    cfg = AdjointConfig(variant="backsolve", solver_config=sk.SolverConfig(abstol=1e-8, reltol=1e-8))
    with pytest.raises(NumericalBlowupError, match="interpolating"):
        continuous_adjoint(ent.problem, ent.loss, cfg)


def test_initial_condition_adjoint_is_lambda0():
    # theta IS the initial condition (p = n, theta-free rhs): the gradient
    # reduces to lambda(t0)
    def rhs(u, p, t):
        return np.array([u[1], -u[0]])

    theta = np.array([0.3, 1.2])
    prob = sk.OdeProblem(
        rhs=rhs, u0=theta.copy(), tspan=(0.0, 2.0), theta=theta,
        u0_jacobian=np.eye(2),
    )
    loss = sk.LinearStateLoss([2.0], [[1.0, 0.0]])
    res = continuous_adjoint(prob, loss, AdjointConfig(variant="interpolating", solver_config=tight()))
    assert np.allclose(res.gradient, res.metadata["lambda0"], atol=1e-14)
    # oracle: d u1(2)/du0 for the rotation system is (cos 2, sin 2)
    assert np.allclose(res.gradient, [math.cos(2.0), math.sin(2.0)], atol=1e-8)


@pytest.mark.parametrize("variant", ["interpolating", "quadrature"])
def test_checkpoint_invariance(variant):
    ent = sk.make_harmonic(0.2)
    grads = {}
    for K in (None, 1, 4, 16):
        cfg = AdjointConfig(variant=variant, solver_config=tight(), checkpoints=K)
        grads[K] = continuous_adjoint(ent.problem, ent.loss, cfg).gradient[0]
    base = grads[None]
    for K in (1, 4, 16):
        assert abs(grads[K] - base) / abs(base) <= 1e-12


def test_checkpoint_every_step_equals_full_storage():
    ent = sk.make_harmonic(0.2)
    full_sol = sk.solve(ent.problem, tight())
    K = full_sol.stats.accepted_steps
    full = continuous_adjoint(ent.problem, ent.loss, AdjointConfig(variant="interpolating", solver_config=tight()))
    every = continuous_adjoint(
        ent.problem, ent.loss,
        AdjointConfig(variant="interpolating", solver_config=tight(), checkpoints=K),
    )
    assert every.gradient[0] == full.gradient[0]


def test_discrete_continuous_gap_shrinks_with_dt():
    ent = sk.make_harmonic(0.2)
    cont = continuous_adjoint(
        ent.problem, ent.loss,
        AdjointConfig(variant="interpolating", solver_config=sk.SolverConfig(abstol=1e-12, reltol=1e-12)),
    ).gradient[0]
    gaps = []
    for dt in (1.0, 0.1, 0.01):
        disc = discrete_adjoint(
            ent.problem, ent.loss,
            AdjointConfig(variant="discrete", solver_config=sk.SolverConfig(method="rk4", dt=dt)),
        ).gradient[0]
        gaps.append(abs(disc - cont))
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("variant", ["interpolating", "quadrature", "backsolve"])
def test_variants_match_centered_fd_on_predprey(variant):
    ent = sk.make_predprey(1.0)
    cfg = AdjointConfig(variant=variant, solver_config=sk.SolverConfig(abstol=1e-10, reltol=1e-10))
    res = continuous_adjoint(ent.problem, ent.loss, cfg)
    fn = sk.direct.solver_loss_fn(ent.problem, ent.loss, sk.SolverConfig(abstol=1e-10, reltol=1e-10))
    fd = sk.fd_gradient(fn, ent.problem.theta, 1e-6, scheme="centered")
    assert abs(res.gradient[0] - fd[0]) / abs(fd[0]) <= 1e-4


def test_quadrature_order_convergence():
    ent = sk.make_harmonic(0.2)
    vals = {}
    for order in (7, 15):
        cfg = AdjointConfig(variant="quadrature", solver_config=tight(), quadrature_order=order)
        vals[order] = continuous_adjoint(ent.problem, ent.loss, cfg).gradient[0]
    assert abs(vals[7] - vals[15]) <= 1e-9 * abs(ANALYTIC)


def test_integrated_loss_adjoint():
    # L = int u1^2 / 2 dt on the harmonic oscillator, cross-checked against
    # forward AD on the same integrated loss
    ent = sk.make_harmonic(0.2)
    loss = sk.IntegratedLoss(
        h=lambda u, th: 0.5 * u[0] * u[0],
        dh_du=lambda u, th: np.array([float(u[0]), 0.0]),
        dh_dtheta=lambda u, th: np.zeros(1),
    )
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    res = continuous_adjoint(ent.problem, loss, AdjointConfig(variant="quadrature", solver_config=cfg))
    fs = sk.forward_sensitivity(ent.problem, loss, cfg)
    assert res.gradient[0] == pytest.approx(fs.gradient[0], rel=1e-4)


def test_adjoint_config_validation():
    with pytest.raises(ValueError):
        AdjointConfig(variant="mystery")
    with pytest.raises(ValueError):
        AdjointConfig(quadrature_order=1)
    with pytest.raises(ValueError):
        AdjointConfig(checkpoints=0)


def test_unknown_loss_kind_rejected():
    calls = []
    ent = sk.make_harmonic(0.2)
    rhs = ent.problem.rhs

    def counting_rhs(u, theta, t):
        calls.append(t)
        return rhs(u, theta, t)

    problem = dataclasses.replace(ent.problem, rhs=counting_rhs)
    loss = object()
    with pytest.raises(TypeError, match="unknown loss specification"):
        sk.forward_sensitivity(problem, loss, tight())
    # rejected before the augmented solve
    assert calls == []
    for variant in ("backsolve", "interpolating", "quadrature"):
        calls.clear()
        cfg = AdjointConfig(variant=variant, solver_config=tight())
        with pytest.raises(TypeError, match="unknown loss specification"):
            continuous_adjoint(problem, loss, cfg)
        # rejected before the forward and reverse solves
        assert calls == []
    cfg = AdjointConfig(variant="discrete",
                        solver_config=sk.SolverConfig(method="rk4", dt=0.1))
    with pytest.raises(ValueError, match="pointwise loss"):
        discrete_adjoint(problem, loss, cfg)
    assert calls == []


ADJOINT_VARIANTS = ("discrete", "backsolve", "interpolating", "quadrature")


@pytest.mark.parametrize("make,rk4_dt", [
    (lambda: sk.make_harmonic(0.2), 1e-3),
    (lambda: sk.make_predprey(1.0), 2e-3),
    (lambda: sk.make_heat1d(32, 0.1), 1e-3),
])
@pytest.mark.parametrize("variant", ADJOINT_VARIANTS)
def test_all_variants_match_centered_fd(make, rk4_dt, variant):
    ent = make()
    solver = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    fn = sk.direct.solver_loss_fn(ent.problem, ent.loss, solver)
    fd = sk.fd_gradient(fn, ent.problem.theta, 1e-6, scheme="centered")
    if variant == "discrete":
        cfg = AdjointConfig(variant="discrete",
                            solver_config=sk.SolverConfig(method="rk4", dt=rk4_dt))
        res = discrete_adjoint(ent.problem, ent.loss, cfg)
    else:
        cfg = AdjointConfig(variant=variant, solver_config=solver)
        if ent.id == "heat1d" and variant == "backsolve":
            # anti-diffusive reverse dynamics: the one genuinely
            # inapplicable (problem, variant) pair surfaces as a blowup
            with pytest.raises(NumericalBlowupError):
                continuous_adjoint(ent.problem, ent.loss, cfg)
            return
        res = continuous_adjoint(ent.problem, ent.loss, cfg)
    rel = np.linalg.norm(res.gradient - fd) / np.linalg.norm(fd)
    assert rel <= 1e-4
