import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import sensikit as sk
from sensikit.adjoint import AdjointConfig, _forward_pass, _SegmentReader
from sensikit.core import (Solution, SolverStats, _hermite_rows, _horner, _locate, _step_end,
                           span_tol)
from sensikit.dual import MultiDual
from sensikit.errors import (
    NonConvergenceError,
    NumericalBlowupError,
    StepsizeUnderflowError,
)
from sensikit.solver import (
    JOINT_PRIMAL_DUAL,
    PRIMAL_ONLY,
    _fixed_mesh,
    _march,
    checkpoint_plan,
    propose_dt,
    rk_step,
    scaled_error,
)
from sensikit.tableaus import DOPRI5, EULER, RK4, ButcherTableau


def exp_rhs(u, p, t):
    return u


def march(problem, cfg, **kwargs):
    """``solver._march`` over the problem's span, its RHS calls counted."""
    stats = SolverStats()

    def rhs(u, theta, t):
        stats.rhs_evaluations += 1
        return problem.rhs(u, theta, t)

    return _march(rhs, problem.u0, problem.theta, *problem.tspan, cfg.tableau, stats, cfg,
                  **kwargs)


def test_euler_step_exponential():
    u1, _, _, _ = rk_step(EULER, exp_rhs, np.array([1.0]), np.zeros(1), 0.0, 0.1)
    assert u1[0] == pytest.approx(1.1, abs=1e-15)


def test_rk4_step_exponential():
    # hand-evaluated classical stages: k=(1, 1.05, 1.0525, 1.10525)
    u1, _, _, _ = rk_step(RK4, exp_rhs, np.array([1.0]), np.zeros(1), 0.0, 0.1)
    expect = 1 + 0.1 * (1 + 2 * 1.05 + 2 * 1.0525 + 1.10525) / 6
    assert u1[0] == pytest.approx(expect, abs=1e-15)
    assert u1[0] == pytest.approx(math.exp(0.1), abs=1e-7)


@pytest.mark.parametrize("tableau", [RK4, DOPRI5])
def test_time_quadrature_order_two(tableau):
    # rhs independent of u: any tableau with sum(b*c) = 1/2 integrates t exactly
    def rhs(u, p, t):
        return np.array([t])

    h = 0.37
    u1, _, _, _ = rk_step(tableau, rhs, np.array([0.0]), np.zeros(1), 0.0, h)
    assert u1[0] == pytest.approx(h * h / 2, rel=1e-14)


def test_rk_step_raises_on_a_non_finite_stage_with_zero_weights():
    # dopri5's stage 2 enters neither u_next (b_2 = 0) nor the embedded
    # state (b_hat_2 = 0), but it feeds stage 3: the once-per-step check
    # on both results still sees it
    assert DOPRI5.b[1] == DOPRI5.b_hat[1] == 0.0
    calls = []

    def rhs(u, p, t):
        calls.append(t)
        return u * np.nan if len(calls) == 2 else u

    with pytest.raises(NumericalBlowupError) as err:
        rk_step(DOPRI5, rhs, np.array([1.0]), np.zeros(1), 2.0, 0.5)
    assert (err.value.t, err.value.dt) == (2.0, 0.5)
    assert calls[1] == 2.0 + 0.2 * 0.5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk_step_blowup_carries_location():
    def rhs(u, p, t):
        return np.array([math.inf])

    with pytest.raises(NumericalBlowupError) as err:
        rk_step(EULER, rhs, np.array([1.0]), np.zeros(1), 2.0, 0.5)
    assert err.value.t == 2.0
    assert err.value.dt == 0.5


def per_entry_rk_step(tableau, rhs, u, theta, t, dt, f0=None):
    """Reference step: one array update per nonzero tableau coefficient."""
    a, c = tableau.a, tableau.c
    k = [np.asarray(rhs(u, theta, t + c[0] * dt)) if f0 is None else f0]
    stages = [u]
    for i in range(1, len(c)):
        ui = u
        for j in range(i):
            if a[i][j] != 0.0:
                ui = ui + (dt * a[i][j]) * k[j]
        stages.append(ui)
        k.append(np.asarray(rhs(ui, theta, t + c[i] * dt)))

    def weighted_sum(weights):
        out = u
        for w, kj in zip(weights, k):
            if w != 0.0:
                out = out + (dt * w) * kj
        return out

    u_emb = None if tableau.b_hat is None else weighted_sum(tableau.b_hat)
    return weighted_sum(tableau.b), u_emb, k, stages


@pytest.mark.parametrize("tableau", [EULER, RK4, DOPRI5], ids=["euler", "rk4", "dopri5"])
@pytest.mark.parametrize("kind", [float, complex])
def test_rk_step_is_the_per_entry_step_bitwise(tableau, kind):
    # the stage rows build up in one array, one operation per stage; every
    # row must keep the bits of the per-entry sums in the order of j
    def rhs(u, theta, t):
        return theta[0] * np.sin(u) - t * u[::-1] + theta[1] * u * u

    rng = np.random.default_rng(21)
    theta = rng.normal(size=2)
    for _ in range(20):
        u = rng.normal(size=5)
        if kind is complex:
            u = u + 1j * rng.normal(size=5)
        t, dt = rng.uniform(-1.0, 1.0), rng.uniform(1e-3, 0.2)
        for f0 in (None, np.asarray(rhs(u, theta, t)) + rng.normal(size=5)):
            got = rk_step(tableau, rhs, u, theta, t, dt, f0=f0)
            want = per_entry_rk_step(tableau, rhs, u, theta, t, dt, f0=f0)
            assert got[0].dtype == kind
            assert got[0].tobytes() == want[0].tobytes()
            if tableau.b_hat is None:
                assert got[1] is None
            else:
                assert got[1].tobytes() == want[1].tobytes()
            assert len(got[2]) == len(want[2]) == tableau.stages
            for kg, kw in zip(got[2], want[2]):
                assert kg.tobytes() == kw.tobytes()
            assert got[3].shape == (tableau.stages, 5)
            assert got[3].tobytes() == np.array(want[3]).tobytes()


@pytest.mark.parametrize("tableau", [RK4, DOPRI5], ids=["rk4", "dopri5"])
@pytest.mark.parametrize("dual_arg", ["u", "theta", "object-array-u"])
def test_rk_step_refuses_dual_states_before_any_rhs_call(tableau, dual_arg):
    calls = []

    def rhs(u, theta, t):
        calls.append(t)
        return -theta[0] * u

    u, theta = np.array([1.0, 2.0]), np.array([0.5])
    args = {
        "u": (sk.dual.seed_state(u, None, 1), theta),
        "theta": (u, sk.dual.seed(theta)),
        "object-array-u": (np.array([MultiDual(x, [1.0]) for x in u]), theta),
    }[dual_arg]
    with pytest.raises(TypeError, match=r'sk\.gradient\(\.\.\., "forward_ad"\)'):
        rk_step(tableau, rhs, *args, 0.0, 0.1)
    assert len(calls) == 0


def test_solve_peak_memory_stays_near_its_returned_mesh():
    # a step's rows are views of its whole block: a kept node must be a
    # copy, or every node would hold all s + 1 rows of its step
    ent = sk.make_heat1d(64)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    tracemalloc.start()
    try:
        sol = sk.solve(ent.problem, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.stats.accepted_steps == 242
    assert peak <= 2.5 * (sol.node_states.nbytes + sol.node_derivs.nbytes)


def test_scaled_error_zero_for_equal_states():
    u = np.array([1.0, -2.0])
    assert scaled_error(u, u, 1e-6, 1e-6) == 0.0


def test_scaled_error_normalization_unit():
    # single component with err = abstol and no relative part scales to 1
    abstol = 1e-8
    assert scaled_error([abstol], [0.0], abstol, 0.0) == pytest.approx(1.0)


def test_propose_dt_elementary_doubling():
    # q = 5, w = 32: 32^(1/5) = 2, times the safety 0.9
    assert propose_dt(0.1, 32.0, 5) == pytest.approx(0.18)


def test_propose_dt_clamps_at_eta_max():
    assert propose_dt(0.1, 1e12, 5) == pytest.approx(1.0)


def test_propose_dt_default_safety():
    assert propose_dt(1.0, 1.0, 5) == pytest.approx(0.9)


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


def test_norm_mode_changes_step_sequence_of_forward_ad():
    # constant primal solution hides all tangent error from the primal-only
    # norm, so the two controllers must walk different meshes
    ent = sk.make_predprey(1.0)
    res = {}
    for mode in (PRIMAL_ONLY, JOINT_PRIMAL_DUAL):
        cfg = sk.SolverConfig(abstol=1e-12, reltol=1e-12, norm_mode=mode)
        res[mode] = sk.forwardad_gradient(ent.problem, ent.loss, cfg)
    a, b = res[PRIMAL_ONLY].trajectory_times, res[JOINT_PRIMAL_DUAL].trajectory_times
    assert len(a) != len(b) or not np.array_equal(a, b)
    assert res[PRIMAL_ONLY].stats.accepted_steps < res[JOINT_PRIMAL_DUAL].stats.accepted_steps


@pytest.mark.parametrize("method,dt", [("dopri5", None), ("rk4", 0.1)])
@pytest.mark.parametrize("dual_arg", ["theta", "object-array-theta"])
def test_solve_refuses_dual_states_before_any_rhs_call(method, dt, dual_arg):
    # forward AD integrates a packed float state; a dual parameter vector
    # reaching the solver would die in the adaptive norm or, fixed-step,
    # silently run.  OdeProblem casts u0 to float, so theta is the only way in
    ent = sk.make_predprey(1.0)
    calls = []

    def rhs(u, theta, t):
        calls.append(t)
        return ent.problem.rhs(u, theta, t)

    problem = dataclasses.replace(ent.problem, rhs=rhs)
    theta = {
        "theta": sk.dual.seed(problem.theta),
        "object-array-theta": np.array([MultiDual(x, [1.0]) for x in problem.theta]),
    }[dual_arg]
    with pytest.raises(TypeError, match=r'sk\.gradient\(\.\.\., "forward_ad"\)'):
        sk.solve(problem, sk.SolverConfig(method=method, dt=dt), theta=theta)
    assert len(calls) == 0


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
    # a numpy integer is a step budget too
    with pytest.raises(NonConvergenceError, match="^exceeded 100 step attempts at t=") as err:
        sk.solve(ent.problem, sk.SolverConfig(method="euler", dt=1e-6, max_steps=np.int64(100)))
    # it carries the time and stepsize it stood at, as a blowup does
    assert err.value.t == pytest.approx(1e-4) and err.value.dt == 1e-6
    assert str(err.value).endswith(f"at t={err.value.t!r}")


def test_stepsize_underflow():
    # an rhs spike the controller cannot resolve drives dt to zero
    def spiky(u, p, t):
        return np.array([1.0 / (1e-300 + abs(t - 0.5) ** 8)])

    prob = sk.OdeProblem(rhs=spiky, u0=[0.0], tspan=(0.0, 1.0), theta=[0.0])
    with pytest.raises((StepsizeUnderflowError, NonConvergenceError)) as err:
        sk.solve(prob, sk.SolverConfig(abstol=1e-12, reltol=1e-12))
    assert 0.0 <= err.value.t <= 1.0 and err.value.dt > 0


@pytest.mark.parametrize("method,dt,max_steps,error,message", [
    ("euler", 1e-6, 100, NonConvergenceError,
     "exceeded 100 step attempts at t=9.999999999999982e-05"),
    ("rk4", 1e-300, 1_000_000, StepsizeUnderflowError, "stepsize underflow: dt=1e-300 at t=0.0"),
])
def test_a_fixed_grid_over_budget_or_underflowing_is_refused_before_any_rhs_call(
        method, dt, max_steps, error, message):
    # a fixed-step run builds its grid before it reads its first derivative,
    # so a grid longer than max_steps or a dt too small to move t is refused
    # with the error a step would raise, after no RHS call
    ent = sk.make_harmonic(0.2)
    calls = []
    rhs = ent.problem.rhs

    def counting_rhs(u, theta, t):
        calls.append(t)
        return rhs(u, theta, t)

    problem = dataclasses.replace(ent.problem, rhs=counting_rhs)
    cfg = sk.SolverConfig(method=method, dt=dt, max_steps=max_steps)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        sk.solve(problem, cfg)
    assert calls == []


def test_a_second_discrete_adjoint_request_steps_the_grid_its_check_built(monkeypatch):
    # the discrete adjoint's off-grid check and every fixed-step run read one
    # cached _fixed_mesh grid: a cold request builds it once, in 1,000
    # _attempt calls, and a second request on the same grid makes none
    ent = sk.make_predprey(1.0)
    cfg = sk.SolverConfig(method="rk4", dt=0.01)
    attempts = []
    attempt = sk.solver._attempt

    def counting_attempt(*args):
        attempts.append(args[0])
        return attempt(*args)

    monkeypatch.setattr(sk.solver, "_attempt", counting_attempt)
    _fixed_mesh.cache_clear()
    first = sk.gradient(ent.problem, ent.loss, "discrete_adjoint", cfg)
    assert len(attempts) == 1000
    attempts.clear()
    second = sk.gradient(ent.problem, ent.loss, "discrete_adjoint", cfg)
    assert attempts == []
    assert second.gradient.tobytes() == first.gradient.tobytes()


def test_a_fixed_step_reverse_pass_leaves_the_forward_grid_cached(monkeypatch):
    # a continuous adjoint's reverse pass stops at every observation and
    # builds each stretch's grid uncached, so the one cached grid stays its
    # forward pass's, and a discrete-adjoint request after it steps that grid
    # in no _attempt call (an evicting reverse pass costs it 1,000)
    ent = sk.make_predprey(1.0)
    cfg = sk.SolverConfig(method="rk4", dt=0.01)
    attempts = []
    attempt = sk.solver._attempt

    def counting_attempt(*args):
        attempts.append(args[0])
        return attempt(*args)

    monkeypatch.setattr(sk.solver, "_attempt", counting_attempt)
    _fixed_mesh.cache_clear()
    sk.gradient(ent.problem, ent.loss, "continuous_interpolating", cfg)
    assert _fixed_mesh.cache_info().misses == 1
    attempts.clear()
    sk.gradient(ent.problem, ent.loss, "discrete_adjoint", cfg)
    assert attempts == []


def test_saveat_via_dense_output():
    ent = sk.make_harmonic(0.2)
    grid = np.linspace(0.0, 10.0, 41)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-10, reltol=1e-10, saveat=grid))
    assert np.array_equal(sol.times, grid)
    expect = np.array([ent.analytic_solution(t) for t in grid])
    assert np.max(np.abs(sol.states - expect)) < 1e-7
    # a grid ending within the span tolerance past t1 saves the final node
    tol = 1e-9 * 10.0
    late = np.append(grid[:-1], 10.0 + 0.5 * tol)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-10, reltol=1e-10, saveat=late))
    assert sol.states[-1].tobytes() == sol.node_states[-1].tobytes()


def test_saveat_on_a_fixed_step_mesh_reads_dense_output():
    # a fixed-step mesh is read like any kept mesh: Hermite between nodes,
    # the node state itself on a node
    ent = sk.make_harmonic(0.2)
    full = sk.solve(ent.problem, sk.SolverConfig(method="rk4", dt=0.5))
    cfg = sk.SolverConfig(method="rk4", dt=0.5, saveat=np.array([0.0, 0.25, 10.0]))
    sol = sk.solve(ent.problem, cfg)
    assert sol.states[1].tobytes() == sk.dense_eval(full, 0.25).tobytes()
    assert 0.25 not in full.node_times
    assert sol.states[0].tobytes() == full.node_states[0].tobytes()
    assert sol.states[2].tobytes() == full.node_states[-1].tobytes()


@pytest.mark.parametrize("method", ["dopri5", "rk4"])
def test_saveat_rows_kept_without_a_mesh_are_dense_eval_bitwise(method):
    # a solve that keeps no mesh takes each saveat row as it steps past the
    # time, with dense_eval's bits: t0, t1, a node, a time within span_tol
    # of a node, times between nodes and one inside the last step
    ent = sk.make_predprey(0.95)
    cfg = (sk.SolverConfig(abstol=1e-8, reltol=1e-8) if method == "dopri5"
           else sk.SolverConfig(method="rk4", dt=0.1))
    full = sk.solve(ent.problem, cfg)
    ts = full.node_times
    inside_last = 0.5 * (ts[-2] + ts[-1])
    grid = np.array([0.0, 0.37, ts[7], ts[9] + 4e-9, 5.55, inside_last, 10.0])
    kept = march(ent.problem, cfg, keep="final", saveat=grid)
    assert kept.node_states is None
    assert kept.times.tobytes() == grid.tobytes()
    for t, row in zip(grid, kept.states):
        assert row.tobytes() == sk.dense_eval(full, t).tobytes(), t
    # the row inside a non-FSAL last step reads the end derivative, which a
    # solve keeping no mesh otherwise skips: one RHS call more, and counted
    bare = march(ent.problem, cfg, keep="final").stats.rhs_evaluations
    extra = kept.stats.rhs_evaluations - bare
    assert extra == (method == "rk4")
    if method == "rk4":
        assert bare == 4 * kept.stats.accepted_steps
        assert kept.stats.accepted_steps == full.stats.accepted_steps == 100
        early = march(ent.problem, cfg, keep="final", saveat=grid[:-2])
        assert early.stats.rhs_evaluations == bare


STOPS = [1.0 / 3.0, 2.5, 2.5 + 1e-7, 7.123]


@pytest.mark.parametrize("method", ["dopri5", "rk4"])
def test_each_stop_of_a_march_is_a_node_time_bitwise(method):
    # a run with stops ends a step at each, on the clock it steps: the node
    # times hold them bitwise, even a stop 1e-7 past the one before
    ent = sk.make_predprey(0.95)
    cfg = (sk.SolverConfig(abstol=1e-8, reltol=1e-8) if method == "dopri5"
           else sk.SolverConfig(method="rk4", dt=0.1))
    sol = march(ent.problem, cfg, keep="final", stops=STOPS)
    nodes = sol.node_times.tolist()
    assert all(s in nodes for s in STOPS)
    assert nodes[0] == 0.0 and nodes[-1] == 10.0
    assert np.all(np.diff(sol.node_times) > 0)
    # a stretch starts from a first attempt no longer than it; on a fixed
    # step, the step after a stop is dt again, not what the stop clipped
    assert sol.step_dts[nodes.index(2.5)] == pytest.approx(1e-7)
    if method == "rk4":
        assert [sol.step_dts[nodes.index(s)] for s in STOPS[::2]] == [0.1, 0.1]


@pytest.mark.parametrize("method", ["dopri5", "rk4"])
def test_a_jump_gets_the_saveat_rows_taken_since_the_stop_before(method):
    # with stops and saveat, each jump receives the rows at the saveat times
    # since the stop before (a time on a stop goes with that stop), and the
    # run then drops them; a jump returning its state changes nothing
    ent = sk.make_predprey(0.95)
    cfg = (sk.SolverConfig(abstol=1e-8, reltol=1e-8) if method == "dopri5"
           else sk.SolverConfig(method="rk4", dt=0.1))
    grid = np.array([0.05, 1.0 / 3.0, 0.4, 1.7, 2.5 + 5e-8, 4.0, 7.123, 9.99, 10.0])
    whole = march(ent.problem, cfg, keep="final", saveat=grid, stops=STOPS)
    seen = []

    def jump(i, u, rows):
        seen.append((i, [r.tobytes() for r in rows]))
        return u

    end = march(ent.problem, cfg, saveat=grid, stops=STOPS, jump=jump)
    assert end.tobytes() == whole.final_state().tobytes()
    bounds = [0, 2, 4, 5, 7, 9]  # grid[bounds[i]:bounds[i + 1]] lies up to stop i, then t1
    assert [i for i, _ in seen] == [0, 1, 2, 3, 4]
    for i, rows in seen:
        assert rows == [r.tobytes() for r in whole.states[bounds[i] : bounds[i + 1]]], i


@pytest.mark.parametrize("method,dt,tspan", [("rk4", 0.01, (0.0, 10.0)), ("rk4", 0.3, (0.0, 10.0)),
                                             ("euler", 0.05, (0.0, 10.0)),
                                             ("rk4", 0.1, (0.3, 7.0))])
def test_a_fixed_step_solve_steps_the_fixed_mesh_bitwise(method, dt, tspan):
    # _fixed_mesh is the grid every fixed-step run steps and the one the
    # discrete adjoint checks its observations against before any step; it
    # is pinned here as a solve's nodes and stepsizes, bitwise, a clipped
    # last step included (0.3 on [0, 10] leaves a step of 0.1)
    ent = sk.make_harmonic(0.2)
    problem = dataclasses.replace(ent.problem, tspan=tspan)
    sol = sk.solve(problem, sk.SolverConfig(method=method, dt=dt))
    times, dts = _fixed_mesh(*tspan, dt, 1_000_000)
    assert sol.node_times.tobytes() == np.array(times).tobytes()
    assert sol.step_dts.tobytes() == np.array(dts).tobytes()
    if dt == 0.3:
        assert dts[-1] == pytest.approx(0.1) and dts[-2] == 0.3


def test_a_saveat_row_a_rounding_past_tol_into_the_last_step_reads_its_end_derivative():
    # t + tol < x and x - t > tol disagree for some x: the read rule
    # (core._step_end) takes Hermite there, so the last step must keep its
    # end derivative.  Deciding by the first form, a backsolve with an
    # observation at such an x raised TypeError on a None derivative
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(method="rk4", dt=0.1)
    full = sk.solve(ent.problem, cfg)
    t, tol = full.node_times[-2], span_tol(*ent.problem.tspan)
    x = float(t + tol)
    assert not t + tol < x and _step_end(t, full.node_times[-1], x, tol) is None
    kept = march(ent.problem, cfg, keep="final", saveat=np.array([x, 10.0]))
    assert kept.states[0].tobytes() == sk.dense_eval(full, x).tobytes()
    loss = sk.LinearStateLoss([x, 10.0], np.ones((2, 2)))
    res = sk.gradient(ent.problem, loss, "continuous_backsolve", cfg)
    ref = sk.gradient(ent.problem, loss, "continuous_interpolating", cfg)
    assert res.gradient == pytest.approx(ref.gradient, rel=1e-6)


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


def test_dense_eval_is_the_hermite_formula_bitwise():
    # the builder's rows are the step's cubic Hermite by its properties, and
    # every off-node read of dense_eval is the one evaluator on them
    rng = np.random.default_rng(11)
    ua, fa, ub, fb = rng.normal(size=(4, 3))
    h = 0.37
    rows = _hermite_rows(ua, fa, ub, fb, h)
    eps = np.finfo(float).eps
    # end values: s = 0 returns ua bitwise, s = 1 returns ub to rounding
    assert _horner(rows, 0.0).tobytes() == ua.tobytes()
    assert np.abs(_horner(rows, 1.0) - ub).max() <= 8 * eps * np.abs(rows).max()
    # end slopes, d/dt = (d/ds) / h: fa at s = 0, fb at s = 1
    c0, c1, c2, c3 = rows
    assert np.abs(c1 / h - fa).max() <= 2 * eps * np.abs(fa).max()
    assert np.abs((c1 + 2 * c2 + 3 * c3) / h - fb).max() <= 32 * eps * np.abs(rows).max() / h
    # a cubic is reproduced exactly, up to rounding
    a = rng.normal(size=(4, 3))
    ta = 1.3

    def cubic(t):
        return a[0] + t * (a[1] + t * (a[2] + t * a[3]))

    def slope(t):
        return a[1] + t * (2 * a[2] + t * 3 * a[3])

    rows = _hermite_rows(cubic(ta), slope(ta), cubic(ta + h), slope(ta + h), h)
    for s in np.linspace(0.0, 1.0, 11):
        assert np.abs(_horner(rows, s) - cubic(ta + s * h)).max() <= 1e-13, s
    # order 4 on exact harmonic node data: halving h divides the error by 16
    ent = sk.make_harmonic(0.2)
    errors = []
    for n_steps in (10, 20, 40):
        ts = np.linspace(0.0, 10.0, n_steps + 1)
        ys = np.array([ent.analytic_solution(t) for t in ts])
        fs = np.array([ent.problem.rhs(y, ent.problem.theta, t) for y, t in zip(ys, ts)])
        rows = _hermite_rows(ys[:-1], fs[:-1], ys[1:], fs[1:], np.diff(ts)[:, None])
        mid = 0.5 * (ts[:-1] + ts[1:])
        exact = np.array([ent.analytic_solution(t) for t in mid])
        errors.append(np.abs(_horner(rows, 0.5) - exact).max())
    assert all(3.9 < math.log2(e / e_half) < 4.1 for e, e_half in zip(errors, errors[1:])), errors
    # dense_eval off the nodes reads the builder's rows by the evaluator, bitwise
    sol = sk.solve(sk.make_predprey(0.95).problem, sk.SolverConfig(abstol=1e-8, reltol=1e-8))
    ts, ys, fs = sol.node_times, sol.node_states, sol.node_derivs
    steps = rng.integers(0, len(ts) - 1, 500)
    for j, frac in zip(steps, rng.uniform(0.01, 0.99, 500)):
        ta, tb = float(ts[j]), float(ts[j + 1])
        t = ta + frac * (tb - ta)
        rows = _hermite_rows(ys[j], fs[j], ys[j + 1], fs[j + 1], tb - ta)
        assert sk.dense_eval(sol, t).tobytes() == _horner(rows, (t - ta) / (tb - ta)).tobytes()
    # within half the node tolerance of a node the node state comes back
    tol = 1e-9 * max(ts[-1] - ts[0], 1.0)
    for j in (1, len(ts) // 2, len(ts) - 2):
        for t in (ts[j] - 0.5 * tol, ts[j] + 0.5 * tol):
            assert sk.dense_eval(sol, t).tobytes() == ys[j].tobytes()
    # within it outside the span too: the end nodes
    for t, y in ((ts[0], ys[0]), (ts[-1], ys[-1])):
        for off in (-0.5 * tol, 0.5 * tol):
            assert sk.dense_eval(sol, t + off).tobytes() == y.tobytes()


def test_dense_eval_array_reads_are_the_scalar_path_bitwise():
    # an array of times is read in one expression per term: that may not
    # change a bit of a read
    ent = sk.make_predprey(0.95)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-8, reltol=1e-8))
    ts = sol.node_times
    tol = 1e-9 * max(ts[-1] - ts[0], 1.0)
    rng = np.random.default_rng(12)
    steps = rng.integers(0, len(ts) - 1, 500)
    times = ts[steps] + rng.uniform(0.0, 1.0, 500) * (ts[steps + 1] - ts[steps])
    scalar = np.array([sk.dense_eval(sol, t) for t in times])
    assert sk.dense_eval(sol, times).tobytes() == scalar.tobytes()
    for m in np.unique(steps)[:50]:
        on_step = times[steps == m]
        assert sk.dense_eval(sol, on_step).tobytes() == scalar[steps == m].tobytes()
    # within span_tol of a node, inside a step, the node state comes back
    near = []
    for m in (0, len(ts) // 2, len(ts) - 2):
        near += [(ts[m], m), (ts[m] + 0.5 * tol, m), (ts[m + 1] - 0.5 * tol, m), (ts[m + 1], m)]
    for t, m in near:
        node = m if abs(t - ts[m]) <= tol else m + 1
        assert sk.dense_eval(sol, t).tobytes() == sol.node_states[node].tobytes()
    near_t = np.array([t for t, _ in near])
    rows = np.array([sk.dense_eval(sol, t) for t in near_t])
    assert sk.dense_eval(sol, near_t).tobytes() == rows.tobytes()
    # a step shorter than 2 span_tol: both of its nodes are candidates and
    # every read agrees with the scalar path on which one wins
    short = Solution(
        times=None, states=None, node_times=np.array([0.0, 1.0, 1.0 + 1.5 * 2e-9, 2.0]),
        node_states=rng.normal(size=(4, 2)), node_derivs=rng.normal(size=(4, 2)),
        stats=SolverStats(),
    )
    grid = np.linspace(1.0 - 3e-9, 1.0 + 6e-9, 41)
    rows = np.array([sk.dense_eval(short, t) for t in grid])
    assert sk.dense_eval(short, grid).tobytes() == rows.tobytes()
    with pytest.raises(ValueError):
        sk.dense_eval(sol, np.array([ts[1], ts[-1] + 2 * tol]))
    # a solve that took no step keeps one node, which every read returns
    still = sk.OdeProblem(rhs=lambda u, th, t: -u, u0=[1.0], tspan=(0.0, 1e-13), theta=[0.0])
    one = sk.solve(still, sk.SolverConfig())
    assert sk.dense_eval(one, np.array([0.0, 1e-13])).tolist() == [[1.0], [1.0]]


def test_dense_eval_array_reads_on_a_complex_mesh_are_the_scalar_path_bitwise():
    # complex step's loss reads every observation with one array call:
    # its rows must be the per-time calls' bits, near nodes and at the
    # span's ends included
    ent = sk.make_predprey(0.95)
    theta = ent.problem.theta + 1e-3j
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-8, reltol=1e-8), theta=theta)
    ts = sol.node_times
    assert sol.node_states.dtype == complex and np.abs(sol.node_states.imag).max() > 1e-4
    tol = 1e-9 * max(ts[-1] - ts[0], 1.0)
    rng = np.random.default_rng(13)
    steps = rng.integers(0, len(ts) - 1, 300)
    times = ts[steps] + rng.uniform(0.0, 1.0, 300) * (ts[steps + 1] - ts[steps])
    near = [ts[0] - 0.5 * tol, ts[0], ts[0] + 0.5 * tol, ts[4] - 0.5 * tol, ts[4],
            ts[9] + 0.5 * tol, ts[-1] - 0.5 * tol, ts[-1], ts[-1] + 0.5 * tol]
    times = np.sort(np.concatenate([times, near]))
    rows = np.array([sk.dense_eval(sol, t) for t in times])
    assert sk.dense_eval(sol, times).tobytes() == rows.tobytes()
    # loss_eval's one array read sums the terms of the per-time reads
    loss = ent.loss
    assert loss.times[0] == 0.0 and loss.times[-1] == 10.0
    want = 0.0
    for i, t in enumerate(loss.times):
        want = want + loss.value_at(sk.dense_eval(sol, t), i)
    assert np.complex128(sk.loss_eval(sol, loss)).tobytes() == np.complex128(want).tobytes()


def test_solve_with_complex_theta_alone_integrates_complex_states():
    # complex step passes theta only: numpy promotes the float u0 at the
    # first step, so the nodes and the saveat rows come back complex and
    # carry the derivative in their imaginary parts
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    eps = 1e-20
    theta = ent.problem.theta + 1j * eps
    sol = sk.solve(ent.problem, cfg, theta=theta)
    saved = sk.solve(ent.problem, dataclasses.replace(cfg, saveat=ent.loss.times), theta=theta)
    assert sol.node_states.dtype == saved.states.dtype == complex
    assert np.abs(saved.states.imag).max() > 0
    want = sk.forward_sensitivity(ent.problem, ent.loss, cfg).gradient[0]
    for s in (sol, saved):
        got = np.imag(sk.loss_eval(s, ent.loss)) / eps
        assert abs(got - want) <= 1e-6 * abs(want)


def test_dense_eval_out_of_span():
    ent = sk.make_harmonic(0.2)
    sol = sk.solve(ent.problem, sk.SolverConfig())
    with pytest.raises(ValueError):
        sk.dense_eval(sol, 10.5)
    tol = 1e-9 * 10.0
    for t in (-2 * tol, 10.0 + 2 * tol):
        with pytest.raises(ValueError):
            sk.dense_eval(sol, t)


def test_dense_eval_reads_a_time_or_a_1d_sequence_of_times():
    # a NaN time fails the span check instead of reading a NaN row, a list
    # reads as a 1-D array, and a 2-D array is refused by its shape
    sol = sk.solve(sk.make_harmonic(0.2).problem, sk.SolverConfig())
    for t in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="outside solution span"):
            sk.dense_eval(sol, t)
    times = [1.0, sol.node_times[3], 2.5]
    assert sk.dense_eval(sol, times).tobytes() == sk.dense_eval(sol, np.array(times)).tobytes()
    with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
        sk.dense_eval(sol, np.ones((2, 2)))


def test_dense_eval_reads_no_times_as_an_empty_block_of_the_mesh_dtype():
    # the span check's t.min() raised numpy's zero-size reduction error
    problem = sk.make_harmonic(0.2).problem
    for theta in (problem.theta, problem.theta + 1e-20j):
        sol = sk.solve(problem, sk.SolverConfig(), theta)
        for t in ([], (), np.array([])):
            block = sk.dense_eval(sol, t)
            assert block.shape == (0, 2) and block.dtype == sol.node_states.dtype


def test_locate_places_a_read_on_its_step_and_end():
    # (step, end, s): the step holding t, the first or last for a time
    # outside the span, and the end a read returns, the left one first, or
    # else t's place s in the step; a time further outside raises
    ts = [0.0, 0.5, 1.25, 2.0]
    tol = span_tol(0.0, 2.0)
    for mesh in (ts, np.array(ts)):
        assert _locate(mesh, 0.0, tol) == (0, 0, None)  # span ends
        assert _locate(mesh, 2.0, tol) == (2, 1, None)
        assert _locate(mesh, -tol, tol) == (0, 0, None)  # outside, within tol
        assert _locate(mesh, 2.0 + tol, tol) == (2, 1, None)
        assert _locate(mesh, 0.5, tol) == (0, 1, None)  # on a node: its left step
        assert _locate(mesh, 0.5 - tol / 2, tol) == (0, 1, None)  # tol/2 either side
        assert _locate(mesh, 0.5 + tol / 2, tol) == (1, 0, None)
        for t, step, ta, tb in ((1.25 - 2 * tol, 1, 0.5, 1.25), (1.25 + 2 * tol, 2, 1.25, 2.0),
                                (1.0, 1, 0.5, 1.25)):  # off the nodes
            assert _locate(mesh, t, tol) == (step, None, (t - ta) / (tb - ta))
            assert type(_locate(mesh, t, tol)[2]) is float
        for t in (-2 * tol, 2.0 + 2 * tol, math.nan):
            with pytest.raises(ValueError, match="outside solution span"):
                _locate(mesh, t, tol)
    for t, placed in ((0.0, (0, 0)), (1.0, (0, 1)), (-1e-9, (0, 0)), (1.0 + 1e-9, (0, 1)),
                      (5e-10, (0, 0)), (1.0 - 5e-10, (0, 1))):
        assert _locate([0.0, 1.0], t, span_tol(0.0, 1.0)) == (*placed, None)  # 2-node mesh
    assert _locate([0.0, 1.0], 0.5, span_tol(0.0, 1.0)) == (0, None, 0.5)


@pytest.mark.parametrize("method", ["dopri5", "rk4"])
def test_scalar_reads_have_the_bits_of_the_array_read_and_the_step_rows(method):
    # a scalar dense_eval reads the mesh its Solution caches: it returns the
    # array read's row and, off the nodes, _horner of the step's dense_rows
    # bitwise; within tol of a node or an end, that node's state.  A
    # checkpointed pass's reader, on 1 and 4 checkpoints, reads the same bits
    ent = sk.make_predprey(0.95)
    fwd = (sk.SolverConfig(abstol=1e-8, reltol=1e-8) if method == "dopri5"
           else sk.SolverConfig(method="rk4", dt=0.25))
    theta = ent.problem.theta

    def forward(checkpoints):
        cfg = AdjointConfig(solver_config=fwd, checkpoints=checkpoints)
        return _forward_pass(ent.problem, cfg, theta, (), SolverStats())

    full = forward(None)
    ts, ys = full.node_times, full.node_states
    t0, t1 = float(ts[0]), float(ts[-1])
    tol = span_tol(t0, t1)
    inner = ts[1:-1]
    times = np.concatenate([
        np.random.default_rng(11).uniform(t0, t1, 200),                # seeded
        inner, inner - 0.5 * tol, inner + 0.9 * tol, inner + 2 * tol,  # at and near nodes
        [t0, t1, t0 - 0.5 * tol, t1 + 0.9 * tol],                      # the ends, and outside
    ])
    block = sk.dense_eval(full, times)
    for t, row in zip(times.tolist(), block):
        got = sk.dense_eval(full, t)
        j = min(max(int(np.searchsorted(ts, t)) - 1, 0), len(ts) - 2)
        ta, tb = float(ts[j]), float(ts[j + 1])
        want = (ys[j] if t - ta <= tol else ys[j + 1] if tb - t <= tol
                else _horner(full.dense_rows[j], (t - ta) / (tb - ta)))
        assert got.tobytes() == row.tobytes() == want.tobytes(), t
    for checkpoints in (1, 4):
        reader = _SegmentReader(ent.problem, forward(checkpoints), theta, fwd.tableau)
        for t, row in zip(times.tolist()[::-1], block[::-1]):
            assert reader(t).tobytes() == row.tobytes(), (checkpoints, t)
        assert reader(times).tobytes() == block.tobytes(), checkpoints


def test_checkpoint_plan_endpoints():
    assert np.allclose(checkpoint_plan((0.0, 10.0), 1), [0.0, 10.0])
    assert np.allclose(checkpoint_plan((0.0, 10.0), 4), [0.0, 2.5, 5.0, 7.5, 10.0])
    with pytest.raises(ValueError):
        checkpoint_plan((0.0, 10.0), 0)


def test_checkpoint_store_snaps_to_nodes():
    # the snapshots are a map from node index to state, from the first node
    # to the last in order, each with the bits of that node in a full solve;
    # a snapshot's time is its node's time
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-9, reltol=1e-9)
    full = sk.solve(ent.problem, cfg)
    sol = march(ent.problem, cfg, keep="final", plan=checkpoint_plan(ent.problem.tspan, 4))
    snaps = sol.checkpoints
    nodes = list(snaps)
    assert nodes[0] == 0 and nodes[-1] == len(full.node_times) - 1
    assert np.all(np.diff(nodes) > 0) and len(nodes) == 5
    assert sol.node_times[nodes[0]] == 0.0 and sol.node_times[nodes[-1]] == 10.0
    for i, u in snaps.items():
        assert u.tobytes() == full.node_states[i].tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        sk.SolverConfig(method="heun")
    with pytest.raises(ValueError):
        sk.SolverConfig(abstol=-1.0)
    with pytest.raises(ValueError):
        sk.SolverConfig(norm_mode="other")


def test_solver_config_has_no_storage_setting():
    # every solve keeps its mesh; how much an adjoint's forward pass keeps
    # is the method's choice, not a solver option
    with pytest.raises(TypeError, match="save"):
        sk.SolverConfig(save="final")
    sol = sk.solve(sk.make_harmonic(0.2).problem, sk.SolverConfig(method="rk4", dt=0.5))
    assert len(sol.node_states) == len(sol.node_derivs) == len(sol.node_times) == 21


def test_rejected_steps_shrink_and_retry():
    # fast oscillation forces rejections; the retry path must still land
    # within the tolerance-tracking bound
    ent = sk.make_harmonic(20.0)
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-9, reltol=1e-9))
    assert sol.stats.rejected_steps > 0
    err = np.max(np.abs(sol.final_state() - ent.analytic_solution(10.0)))
    assert err <= 100 * 1e-9


def test_nan_error_estimate_halves_the_step(monkeypatch):
    # a NaN error is no error ratio to scale by: the attempt is rejected and
    # retried at half the stepsize
    scaled = sk.solver.scaled_error
    calls = []

    def first_nan(*args):
        calls.append(args)
        return math.nan if len(calls) == 1 else scaled(*args)

    monkeypatch.setattr(sk.solver, "scaled_error", first_nan)
    problem = sk.OdeProblem(rhs=exp_rhs, u0=[1.0], tspan=(0.0, 1.0), theta=[0.0])
    sol = sk.solve(problem, sk.SolverConfig(dt=0.1))
    assert sol.stats.rejected_steps == 1
    assert sol.step_dts[0] == 0.05


def _harmonic_solve_past_the_span():
    ent = sk.make_harmonic(0.2)
    sk.solve(ent.problem, sk.SolverConfig(saveat=[5.0, 11.0]))


# input checks no other test reaches: each raises its message before any step
SOLVER_INPUT_CHECKS = [
    pytest.param(lambda: sk.SolverConfig(max_steps=0), "max_steps must be positive",
                 id="config-max-steps-0"),
    pytest.param(lambda: sk.SolverConfig(max_steps=True), "max_steps must be an integer, got True",
                 id="config-max-steps-bool"),
    pytest.param(lambda: sk.SolverConfig(max_steps=2.5), "max_steps must be an integer, got 2.5",
                 id="config-max-steps-fraction"),
    pytest.param(lambda: sk.SolverConfig(method="rk4", dt=-1), "dt must be positive",
                 id="config-negative-dt"),
    pytest.param(lambda: sk.SolverConfig(saveat=[1.0, 0.5]),
                 "saveat grid must be 1-D and strictly increasing", id="config-decreasing-saveat"),
    pytest.param(_harmonic_solve_past_the_span, "saveat grid extends outside the time span",
                 id="solve-saveat-outside-span"),
    pytest.param(lambda: rk_step(RK4, exp_rhs, np.array([1.0]), np.zeros(1), 0.0, 0.0),
                 "dt must be positive", id="rk-step-dt-0"),
    pytest.param(lambda: scaled_error(np.zeros(2), np.zeros(3), 1e-6, 1e-6),
                 "state shapes differ", id="scaled-error-shapes"),
    pytest.param(lambda: propose_dt(0.0, 1.0, 5), "dt_prev must be positive",
                 id="propose-dt-0"),
]


@pytest.mark.parametrize("call,message", SOLVER_INPUT_CHECKS)
def test_solver_input_checks_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _tableau(**fields):
    euler = dict(name="t", a=((0.0,),), b=(1.0,), c=(0.0,), order=1)
    return lambda: ButcherTableau(**{**euler, **fields})


TABLEAU_CHECKS = [
    pytest.param(_tableau(a=((0.0, 0.0),)), "a must be s x s", id="a-shape"),
    pytest.param(_tableau(a=((1.0,),)), "explicit tableau requires a[i, j] = 0 for i <= j",
                 id="implicit"),
    pytest.param(_tableau(b=(0.5,)), "weights b must sum to 1 (consistency)", id="b-sum"),
    pytest.param(_tableau(b_hat=(0.5, 0.5)), "embedded weights must match stage count",
                 id="b-hat-size"),
    pytest.param(_tableau(fsal=True), "a first-same-as-last tableau needs a[-1] = b and c[-1] = 1",
                 id="fsal-rows"),
]


@pytest.mark.parametrize("build,message", TABLEAU_CHECKS)
def test_butcher_tableau_checks_raise_their_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
