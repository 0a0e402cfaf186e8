import math

import numpy as np
import pytest

import sensikit as sk
from sensikit.dual import MultiDual
from sensikit.errors import (
    NonConvergenceError,
    NumericalBlowupError,
    StepsizeUnderflowError,
)
from sensikit.solver import (
    JOINT_PRIMAL_DUAL,
    PRIMAL_ONLY,
    StepController,
    checkpoint_plan,
    propose_dt,
    rk_step,
    scaled_error,
)
from sensikit.tableaus import DOPRI5, EULER, RK4


def exp_rhs(u, p, t):
    return u


def test_euler_step_exponential():
    u1, _, _ = rk_step(EULER, exp_rhs, np.array([1.0]), np.zeros(1), 0.0, 0.1)
    assert u1[0] == pytest.approx(1.1, abs=1e-15)


def test_rk4_step_exponential():
    # hand-evaluated classical stages: k=(1, 1.05, 1.0525, 1.10525)
    u1, _, _ = rk_step(RK4, exp_rhs, np.array([1.0]), np.zeros(1), 0.0, 0.1)
    expect = 1 + 0.1 * (1 + 2 * 1.05 + 2 * 1.0525 + 1.10525) / 6
    assert u1[0] == pytest.approx(expect, abs=1e-15)
    assert u1[0] == pytest.approx(math.exp(0.1), abs=1e-7)


@pytest.mark.parametrize("tableau", [RK4, DOPRI5])
def test_time_quadrature_order_two(tableau):
    # rhs independent of u: any tableau with sum(b*c) = 1/2 integrates t exactly
    def rhs(u, p, t):
        return np.array([t])

    h = 0.37
    u1, _, _ = rk_step(tableau, rhs, np.array([0.0]), np.zeros(1), 0.0, h)
    assert u1[0] == pytest.approx(h * h / 2, rel=1e-14)


def test_rk_step_blowup_carries_location():
    def rhs(u, p, t):
        return np.array([math.inf])

    with pytest.raises(NumericalBlowupError) as err:
        rk_step(EULER, rhs, np.array([1.0]), np.zeros(1), 2.0, 0.5)
    assert err.value.t == 2.0
    assert err.value.dt == 0.5


def test_scaled_error_zero_for_equal_states():
    u = np.array([1.0, -2.0])
    assert scaled_error(u, u, 1e-6, 1e-6) == 0.0


def test_scaled_error_normalization_unit():
    # single component with err = abstol and no relative part scales to 1
    abstol = 1e-8
    assert scaled_error([abstol], [0.0], abstol, 0.0) == pytest.approx(1.0)


def test_scaled_error_joint_sees_tangent_error():
    abstol = 1e-6
    u = np.array([MultiDual(1.0, [0.0])], dtype=object)
    u_hat = np.array([MultiDual(1.0, [abstol])], dtype=object)
    assert scaled_error(u, u_hat, abstol, 0.0, PRIMAL_ONLY) == 0.0
    joint = scaled_error(u, u_hat, abstol, 0.0, JOINT_PRIMAL_DUAL)
    n, p = 1, 1
    assert joint == pytest.approx(math.sqrt(1.0 / (n * (p + 1))))
    # a dual entry paired with a plain float adds its value and its p tangent
    # coordinates (the float counts as zero tangents); a float-float entry
    # adds its value only: 1 + 2 + 1 coordinates
    u = np.array([MultiDual(1.0, [2 * abstol, 0.0]), 0.0], dtype=object)
    u_hat = np.array([1.0, abstol], dtype=object)
    joint = scaled_error(u, u_hat, abstol, 0.0, JOINT_PRIMAL_DUAL)
    assert joint == pytest.approx(math.sqrt((0.0 + 4.0 + 0.0 + 1.0) / 4.0), rel=1e-12)


def test_propose_dt_unit_errors_keep_dt():
    ctrl = StepController(safety=1.0)
    assert propose_dt(0.3, (1.0, 1.0, 1.0), ctrl, 5) == pytest.approx(0.3)


def test_propose_dt_elementary_doubling():
    # beta = (1, 0, 0), q = 5, w = 32: eta = 32^(1/5) = 2
    ctrl = StepController(beta1=1.0, beta2=0.0, beta3=0.0, safety=1.0)
    assert propose_dt(0.1, (32.0,), ctrl, 5) == pytest.approx(0.2)


def test_propose_dt_clamps_at_eta_max():
    ctrl = StepController(safety=1.0, eta_max=10.0)
    assert propose_dt(0.1, (1e12,), ctrl, 5) == pytest.approx(1.0)


def test_propose_dt_default_safety():
    assert propose_dt(1.0, (1.0,), StepController(), 5) == pytest.approx(0.9)


def test_solve_constant_problem():
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: np.zeros_like(u),
        u0=[3.0, -1.0],
        tspan=(0.0, 5.0),
        theta=[0.0],
    )
    sol = sk.solve(prob, sk.SolverConfig(method="dopri5"))
    assert np.all(sol.states == np.array([3.0, -1.0]))
    assert sol.stats.rejected_steps == 0


def test_solve_harmonic_final_value():
    ent = sk.make_harmonic(0.2)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-12, reltol=1e-12))
    assert sol.final_state()[0] == pytest.approx(math.sin(2.0) / 0.2, rel=1e-10)
    assert sol.final_state()[0] == pytest.approx(4.546487, abs=1e-6)


def test_solve_predprey_constant_solution():
    ent = sk.make_predprey(1.0)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-10, reltol=1e-10))
    assert np.allclose(sol.states, 1.0, atol=1e-8)


def test_adaptive_accepted_steps_within_tolerance():
    ent = sk.make_harmonic(0.2)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-9, reltol=1e-9))
    assert len(sol.step_errors) == sol.stats.accepted_steps
    assert all(e <= 1.0 for e in sol.step_errors)


@pytest.mark.parametrize("tau", [1e-6, 1e-9, 1e-12])
def test_adaptive_tolerance_tracks_error(tau):
    ent = sk.make_harmonic(0.2)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=tau, reltol=tau))
    err = np.max(np.abs(sol.final_state() - ent.analytic_solution(10.0)))
    assert err <= 100 * tau


def test_rk4_global_order():
    prob = sk.OdeProblem(rhs=exp_rhs, u0=[1.0], tspan=(0.0, 1.0), theta=[0.0])

    def global_err(dt):
        sol = sk.solve(prob, sk.SolverConfig(method="rk4", dt=dt))
        return abs(sol.final_state()[0] - math.e)

    ratio = global_err(0.05) / global_err(0.025)
    assert 16 * 0.8 <= ratio <= 16 * 1.2


def test_solve_deterministic_bitwise():
    ent = sk.make_predprey(1.3)
    cfg = sk.SolverConfig(abstol=1e-9, reltol=1e-9)
    a = sk.solve(ent.problem, cfg)
    b = sk.solve(ent.problem, cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.stats == b.stats


def test_norm_mode_changes_step_sequence_on_dual_solve():
    # constant primal solution hides all tangent error from the primal-only
    # norm, so the two controllers must walk different meshes
    ent = sk.make_predprey(1.0)
    theta_d = sk.dual.seed(ent.problem.theta)
    u0_d = sk.dual.seed_state(ent.problem.u0, None, 1)
    sols = {}
    for mode in (PRIMAL_ONLY, JOINT_PRIMAL_DUAL):
        cfg = sk.SolverConfig(abstol=1e-12, reltol=1e-12, norm_mode=mode)
        sols[mode] = sk.solve(ent.problem, cfg, theta=theta_d, u0=u0_d)
    a, b = sols[PRIMAL_ONLY].node_times, sols[JOINT_PRIMAL_DUAL].node_times
    assert len(a) != len(b) or not np.array_equal(a, b)


def test_fixed_step_requires_dt():
    ent = sk.make_harmonic(0.2)
    with pytest.raises(ValueError):
        sk.solve(ent.problem, sk.SolverConfig(method="rk4"))


def test_fixed_step_lands_exactly_on_t1():
    ent = sk.make_harmonic(0.2)
    sol = sk.solve(ent.problem, sk.SolverConfig(method="rk4", dt=0.3))
    assert sol.node_times[-1] == 10.0
    assert sol.node_times[1] - sol.node_times[0] == pytest.approx(0.3)


def test_max_steps_exceeded():
    ent = sk.make_harmonic(0.2)
    with pytest.raises(NonConvergenceError):
        sk.solve(ent.problem, sk.SolverConfig(method="euler", dt=1e-6, max_steps=100))


def test_stepsize_underflow():
    # an rhs spike the controller cannot resolve drives dt to zero
    def spiky(u, p, t):
        return np.array([1.0 / (1e-300 + abs(t - 0.5) ** 8)])

    prob = sk.OdeProblem(rhs=spiky, u0=[0.0], tspan=(0.0, 1.0), theta=[0.0])
    with pytest.raises((StepsizeUnderflowError, NonConvergenceError)):
        sk.solve(prob, sk.SolverConfig(abstol=1e-12, reltol=1e-12))


def test_saveat_via_dense_output():
    ent = sk.make_harmonic(0.2)
    grid = np.linspace(0.0, 10.0, 41)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-10, reltol=1e-10, saveat=grid))
    assert np.array_equal(sol.times, grid)
    expect = np.array([ent.analytic_solution(t) for t in grid])
    assert np.max(np.abs(sol.states - expect)) < 1e-7


def test_saveat_fixed_grid_requires_alignment():
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(method="rk4", dt=0.5, saveat=np.array([0.0, 0.25, 10.0]))
    with pytest.raises(ValueError):
        sk.solve(ent.problem, cfg)


def test_dense_eval_exact_at_nodes():
    ent = sk.make_harmonic(0.2)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-9, reltol=1e-9))
    j = len(sol.node_times) // 2
    assert np.array_equal(sk.dense_eval(sol, sol.node_times[j]), sol.node_states[j])


def test_dense_eval_exact_for_linear_solution():
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: np.array([2.0]), u0=[0.0], tspan=(0.0, 1.0), theta=[0.0]
    )
    sol = sk.solve(prob, sk.SolverConfig(method="rk4", dt=0.25))
    for t in (0.1, 0.33, 0.9):
        assert sk.dense_eval(sol, t)[0] == pytest.approx(2.0 * t, abs=1e-15)


def test_dense_eval_midpoint_accuracy():
    ent = sk.make_harmonic(0.2)
    sol = sk.solve(ent.problem, sk.SolverConfig(method="rk4", dt=0.01))
    t = sol.node_times[500] + 0.005
    err = np.max(np.abs(sk.dense_eval(sol, t) - ent.analytic_solution(t)))
    assert err <= 1e-7


def test_dense_eval_out_of_span():
    ent = sk.make_harmonic(0.2)
    sol = sk.solve(ent.problem, sk.SolverConfig())
    with pytest.raises(ValueError):
        sk.dense_eval(sol, 10.5)


def test_checkpoint_plan_endpoints():
    assert np.allclose(checkpoint_plan((0.0, 10.0), 1), [0.0, 10.0])
    assert np.allclose(checkpoint_plan((0.0, 10.0), 4), [0.0, 2.5, 5.0, 7.5, 10.0])
    with pytest.raises(ValueError):
        checkpoint_plan((0.0, 10.0), 0)


def test_checkpoint_store_snaps_to_nodes():
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-9, reltol=1e-9, save="final", checkpoints=4)
    sol = sk.solve(ent.problem, cfg)
    store = sol.checkpoints
    assert store.times[0] == 0.0
    assert store.times[-1] == 10.0
    assert np.all(np.diff(store.times) > 0)
    for idx, t in zip(store.node_indices, store.times):
        assert sol.node_times[idx] == t


def test_config_validation():
    with pytest.raises(ValueError):
        sk.SolverConfig(method="heun")
    with pytest.raises(ValueError):
        sk.SolverConfig(abstol=-1.0)
    with pytest.raises(ValueError):
        sk.SolverConfig(norm_mode="other")
    with pytest.raises(ValueError):
        StepController(eta_min=1.5)


def test_rejected_steps_shrink_and_retry():
    # fast oscillation forces rejections; the retry path must still land
    # within the tolerance-tracking bound
    ent = sk.make_harmonic(20.0)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-9, reltol=1e-9))
    assert sol.stats.rejected_steps > 0
    err = np.max(np.abs(sol.final_state() - ent.analytic_solution(10.0)))
    assert err <= 100 * 1e-9
