import copy
import dataclasses
import functools
import math

import numpy as np
import pytest

import sensikit as sk
from sensikit import adjoint as adjoint_module
from sensikit import dual
from sensikit.core import Solution, SolverStats, _counted, check_request, span_tol
from sensikit.adjoint import (
    MAX_RECONSTRUCTION_ERROR,
    VARIANTS,
    AdjointConfig,
    _forward_pass,
    _segments_reverse,
    adjoint_rhs,
    continuous_adjoint,
    discrete_adjoint,
    gauss_legendre,
    step_vjp,
)
from sensikit.errors import NonConvergenceError, NumericalBlowupError
from sensikit.sensitivity import jacobian_assembly
from sensikit.solver import rk_step
from sensikit.tableaus import DOPRI5, EULER, RK4
from shared import workloads

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


def test_gauss_legendre_at_the_shipped_order_is_exact_to_degree_seven():
    # quadrature's integrand has degree 6 on a piece where the costate and
    # the forward state are single cubic Hermite reads (QUADRATURE_ORDER's
    # comment).  A k-point rule is exact to degree 2k - 1: the shipped
    # order integrates a seeded degree-7 polynomial to rounding and misses
    # a degree-8 one, so 3 points (exact to 5) fail the first check
    rng = np.random.default_rng(39)
    a, b = 0.3, 1.1
    for degree, exact in ((7, True), (8, False)):
        poly = np.polynomial.Polynomial(rng.standard_normal(degree + 1))
        want = poly.integ()(b) - poly.integ()(a)
        got = gauss_legendre(lambda x: np.array([poly(x)]), a, b,
                             adjoint_module.QUADRATURE_ORDER)[0]
        assert (abs(got - want) <= 1e-14 * np.abs(poly.coef).sum()) == exact, degree


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
    stages = rk_step(EULER, rhs, np.array([0.3, -0.7]), prob.theta, 0.0, dt)[3]
    lam_prop, contrib = step_vjp(prob, EULER, stages, prob.theta, 0.0, dt, lam)
    expect = (np.eye(2) + dt * A).T @ lam
    assert np.allclose(lam_prop, expect, atol=1e-13)
    assert np.allclose(contrib, 0.0)


def test_step_vjp_zero_costate():
    ent = sk.make_harmonic(0.2)
    th = ent.problem.theta
    stages = rk_step(RK4, ent.problem.rhs, np.array([1.0, 0.0]), th, 0.0, 0.1)[3]
    lam_prop, contrib = step_vjp(ent.problem, RK4, stages, th, 0.0, 0.1, np.zeros(2))
    assert np.array_equal(lam_prop, np.zeros(2))
    assert np.array_equal(contrib, np.zeros(1))


def test_step_vjp_refuses_the_wrong_stage_count():
    ent = sk.make_harmonic(0.2)
    th = ent.problem.theta
    stages = rk_step(EULER, ent.problem.rhs, np.array([1.0, 0.0]), th, 0.0, 0.1)[3]
    with pytest.raises(ValueError, match="^step_vjp needs the 4 stage inputs of the step, got 1$"):
        step_vjp(ent.problem, RK4, stages, th, 0.0, 0.1, np.ones(2))


def test_step_vjp_matches_fd_of_step_map():
    ent = sk.make_harmonic(0.2)
    u = np.array([0.8, -0.3])
    lam = np.array([1.3, 0.4])
    dt = 0.05
    stages = rk_step(RK4, ent.problem.rhs, u, ent.problem.theta, 0.0, dt)[3]
    lam_prop, contrib = step_vjp(ent.problem, RK4, stages, ent.problem.theta, 0.0, dt, lam)

    def step_map(uu, th):
        return rk_step(RK4, ent.problem.rhs, uu, th, 0.0, dt)[0]

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


def complex_step_vjp(problem, tableau, u, theta, t, dt, lam, eps=1e-20):
    """Reference: the step map's full Jacobian, one complex-step push per column.

    The right-hand side must be analytic; with no difference taken, eps
    1e-20 leaves each column exact to rounding.
    """
    n, p = u.size, theta.size
    cols = []
    for j in range(n + p):
        h = np.zeros(n + p, dtype=complex)
        h[j] = eps * 1j
        u_next = rk_step(tableau, problem.rhs, u + h[:n], theta + h[n:], t, dt)[0]
        cols.append(u_next.imag / eps)
    jac = np.array(cols).T
    return jac[:, :n].T @ lam, jac[:, n:].T @ lam


@pytest.mark.parametrize("tableau", [EULER, RK4, DOPRI5], ids=["euler", "rk4", "dopri5"])
@pytest.mark.parametrize("jacobians", ["analytic", "multidual"])
def test_step_vjp_matches_multidual_step_push(tableau, jacobians):
    # rk_step refuses multiduals, so the reference pushes complex steps
    problem = sk.make_harmonic(0.2).problem
    if jacobians == "multidual":
        problem = dataclasses.replace(problem, rhs_jac_u=None, rhs_jac_theta=None)
    u = np.array([0.8, -0.3])
    lam = np.array([1.3, 0.4])
    stages = rk_step(tableau, problem.rhs, u, problem.theta, 0.7, 0.05)[3]
    got = step_vjp(problem, tableau, stages, problem.theta, 0.7, 0.05, lam)
    want = complex_step_vjp(problem, tableau, u, problem.theta, 0.7, 0.05, lam)
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)


def stage_by_stage_vjp(problem, tableau, stages, theta, t, dt, lam_in):
    """The transposed stage recursion in its first form: every stage's Jacobians
    assembled first, then a sweep over every ``a[j][i]``, each applied as ``J.T @ kbar``."""
    s = tableau.stages
    theta = np.asarray(theta, dtype=float)
    t, dt = float(t), float(dt)
    a, b, c = tableau.a, tableau.b, tableau.c
    jacobians = [
        jacobian_assembly(problem, y, theta, t + c[i] * dt)[:2] for i, y in enumerate(stages)
    ]
    lam = np.asarray(lam_in, dtype=float)
    ybar = [None] * s
    lam_out = lam
    grad = np.zeros(theta.size)
    for i in range(s - 1, -1, -1):
        kbar = (dt * b[i]) * lam
        for j in range(i + 1, s):
            if a[j][i] != 0.0:
                kbar = kbar + (dt * a[j][i]) * ybar[j]
        J_u, J_theta = jacobians[i]
        ybar[i] = J_u.T @ kbar
        lam_out = lam_out + ybar[i]
        grad = grad + J_theta.T @ kbar
    return lam_out, grad


def random_system(rng, n, p, nonlinear):
    """A seeded n-state, p-parameter problem with analytic Jacobians."""
    A = rng.normal(size=(n, n)) / math.sqrt(n)
    B = rng.normal(size=(n, p))
    if nonlinear:
        def rhs(u, th, t):
            return A @ u + (B @ th) * np.sin(u) - 0.1 * u * u

        def jac_u(u, th, t):
            return A + np.diag((B @ th) * np.cos(u) - 0.2 * u)

        def jac_theta(u, th, t):
            return np.sin(u)[:, None] * B
    else:
        def rhs(u, th, t):
            return A @ u + B @ th

        def jac_u(u, th, t):
            return A

        def jac_theta(u, th, t):
            return B
    return sk.OdeProblem(rhs=rhs, u0=rng.normal(size=n), tspan=(0.0, 1.0),
                         theta=rng.normal(size=p), rhs_jac_u=jac_u, rhs_jac_theta=jac_theta)


@pytest.mark.parametrize("tableau", [EULER, RK4, DOPRI5], ids=["euler", "rk4", "dopri5"])
@pytest.mark.parametrize("jacobians", ["analytic", "multidual"])
def test_step_vjp_has_the_bits_of_the_stage_by_stage_recursion(tableau, jacobians):
    # the coupling-table sweep assembles each stage's Jacobians as it reaches
    # the stage and applies them as np.dot(kbar, J): byte for byte the first
    # form's Jacobian list and J.T @ kbar, on seeded linear and nonlinear systems
    rng = np.random.default_rng(44)
    for nonlinear in (False, True):
        for n in (1, 2, 5, 15):
            for p in (1, 3, 8):
                problem = random_system(rng, n, p, nonlinear)
                if jacobians == "multidual":
                    problem = dataclasses.replace(problem, rhs_jac_u=None, rhs_jac_theta=None)
                t, dt = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.01, 0.2))
                stages = rk_step(tableau, problem.rhs, problem.u0, problem.theta, t, dt)[3]
                lam = rng.normal(size=n)
                got = step_vjp(problem, tableau, stages, problem.theta, t, dt, lam)
                want = stage_by_stage_vjp(problem, tableau, stages, problem.theta, t, dt, lam)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), (nonlinear, n, p)


@pytest.mark.parametrize("tableau", [EULER, RK4, DOPRI5], ids=["euler", "rk4", "dopri5"])
def test_step_vjp_assembles_each_stage_once_when_its_sweep_reaches_it(tableau, monkeypatch):
    problem = sk.make_predprey(0.95).problem
    assemble = adjoint_module.jacobian_assembly
    calls = []

    def counting_assembly(problem, u, theta, t, **kwargs):
        calls.append((u.tobytes(), t))
        return assemble(problem, u, theta, t, **kwargs)

    monkeypatch.setattr(adjoint_module, "jacobian_assembly", counting_assembly)
    t, dt = 0.7, 0.05
    stages = rk_step(tableau, problem.rhs, np.array([1.1, 0.9]), problem.theta, t, dt)[3]
    step_vjp(problem, tableau, stages, problem.theta, t, dt, np.array([0.3, -0.2]))
    # s calls, one at each (Y_i, t + c_i dt), last stage first
    assert calls == [(stages[i].tobytes(), t + tableau.c[i] * dt)
                     for i in range(tableau.stages - 1, -1, -1)]


@pytest.mark.parametrize("tableau", [EULER, RK4, DOPRI5], ids=["euler", "rk4", "dopri5"])
def test_reverse_couplings_list_exactly_the_nonzero_a_ji(tableau):
    table = tableau.reverse_couplings
    assert [(i, b_i, c_i) for i, b_i, c_i, _ in table] == [
        (i, tableau.b[i], tableau.c[i]) for i in range(tableau.stages - 1, -1, -1)]
    listed = [(j, i, a_ji) for i, _, _, couplings in table for j, a_ji in couplings]
    a = np.array(tableau.a)
    assert sorted(listed) == sorted((j, i, a[j, i]) for j, i in zip(*np.nonzero(a)))
    for _, _, _, couplings in table:  # ascending j, the order of each kbar's sum
        assert [j for j, _ in couplings] == sorted(j for j, _ in couplings)


def test_discrete_adjoint_non_finite_stage_raises_in_forward_pass():
    # step_vjp reads its stages off the tape and evaluates no right-hand
    # side, so a non-finite stage is caught where the forward step runs
    def rhs(u, p, t):
        return u if t == 0.0 else u * np.nan

    prob = sk.OdeProblem(rhs=rhs, u0=np.ones(2), tspan=(0.0, 1.0), theta=np.zeros(1))
    loss = sk.LinearStateLoss([1.0], [[1.0, 1.0]])
    cfg = AdjointConfig(variant="discrete", solver_config=sk.SolverConfig(method="rk4", dt=0.1))
    with pytest.raises(NumericalBlowupError, match=r"non-finite stage value at t=0\.0, dt=0\.1") as err:
        discrete_adjoint(prob, loss, cfg)
    assert (err.value.t, err.value.dt) == (0.0, 0.1)


@pytest.mark.parametrize("checkpoints", [None, 4])
def test_stage_tape_holds_the_stage_inputs_of_a_fresh_step(checkpoints):
    # the tape of a full-storage solve and the tape recorded while a
    # checkpoint segment replays both hold rk_step's Y_2 .. Y_s, bitwise
    ent = sk.make_predprey(0.95)
    fwd = sk.SolverConfig(method="rk4", dt=0.05)
    cfg = AdjointConfig(variant="discrete", solver_config=fwd, checkpoints=checkpoints)
    sol = _forward_pass(ent.problem, cfg, ent.problem.theta, (), SolverStats())
    theta = ent.problem.theta
    steps = 0
    for seg, ts, states in _segments_reverse(ent.problem, sol, theta, RK4, keep="tape"):
        assert len(seg.stage_tape) == len(ts) - 1
        for m, rows in enumerate(seg.stage_tape):
            stages = rk_step(RK4, ent.problem.rhs, states[m], theta, ts[m], seg.step_dts[m])[3]
            assert rows.shape == (RK4.stages - 1, ent.problem.n)
            assert np.array(stages[1:]).tobytes() == rows.tobytes()
            steps += 1
    assert steps == sol.stats.accepted_steps == 200


def test_stage_tape_is_kept_exactly_with_the_nodes_of_a_fixed_step_solve():
    # on the discrete adjoint's request only: a plain solve records none
    prob = sk.make_harmonic(0.2).problem
    fixed = sk.SolverConfig(method="rk4", dt=0.1)

    def march(keep, saveat=None):
        return sk.solver._march(prob.rhs, prob.u0, prob.theta, *prob.tspan, RK4,
                                SolverStats(), fixed, keep=keep, saveat=saveat)

    assert len(march("tape").stage_tape) == 100
    assert len(march("tape", np.array([5.0, 10.0])).stage_tape) == 100
    assert march("final").stage_tape is None
    assert sk.solve(prob, sk.SolverConfig()).stage_tape is None
    assert sk.solve(prob, fixed).stage_tape is None


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_discrete_adjoint_counts_the_rows_its_stage_tape_pins(method):
    # each tape entry is a copy of the s - 1 stage inputs step_vjp reads, not
    # a view holding its step's whole block, and the peak counts those rows:
    # 1001 nodes + 3 x 1000 on rk4, the nodes alone on euler
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(method=method, dt=0.01)
    tableau = cfg.tableau
    discrete = AdjointConfig(variant="discrete", solver_config=cfg)
    sol = _forward_pass(ent.problem, discrete, ent.problem.theta, (), SolverStats())
    assert len(sol.stage_tape) == 1000
    for rows in sol.stage_tape:
        assert rows.shape == (tableau.stages - 1, ent.problem.n) and rows.base is None
    res = sk.gradient(ent.problem, ent.loss, "discrete_adjoint", cfg)
    expected = len(sol.node_times) + (tableau.stages - 1) * len(sol.stage_tape)
    assert res.peak_stored_states == expected == {"rk4": 4001, "euler": 1001}[method]


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
    # the stage inputs come off the tape: with analytic Jacobians the
    # reverse pass evaluates no right-hand side, and without them one
    # multidual RHS per stage replaces the Jacobian pair
    assert res.stats.rhs_evaluations == 4 * steps + 1
    assert bare.stats.rhs_evaluations == res.stats.rhs_evaluations + 4 * steps
    assert bare.gradient[0] == pytest.approx(res.gradient[0], rel=1e-13)


# -- adjoint_rhs -------------------------------------------------------


def test_adjoint_rhs_zero_costate():
    # on the problem extended by q' = h, the costate (0, 0, 1) of q alone
    # reads the partials of h off the extended Jacobians
    loss = sk.IntegratedLoss(
        h=lambda u, th: 0.5 * u[0] * u[0] + 2.5 * th[0],
        dh_du=lambda u, th: np.array([u[0], 0.0]),
        dh_dtheta=lambda u, th: np.array([2.5]),
    )
    ent = sk.make_harmonic(0.2)
    problem, _, theta = check_request(ent.problem, loss)
    lam = np.array([0.0, 0.0, 1.0])
    rhs = adjoint_rhs(problem, lambda t: np.array([1.0, 0.0, 0.0]))
    dlam, dg = np.split(rhs(np.concatenate([lam, [0.0]]), theta, 0.0), [3])
    assert np.array_equal(dlam, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(dg, [2.5])


def test_adjoint_rhs_linear_transpose():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(3, 3))
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: A @ u, u0=np.ones(3), tspan=(0.0, 1.0), theta=np.zeros(1)
    )
    lam = rng.normal(size=3)
    dlam = adjoint_rhs(prob, lambda t: np.ones(3), jac_theta=False)(lam, prob.theta, 0.0)
    assert np.allclose(dlam, A.T @ lam, atol=1e-12)


def test_adjoint_rhs_harmonic_transpose():
    ent = sk.make_harmonic(0.2)
    lam = np.array([2.0, -1.0])
    rhs = adjoint_rhs(ent.problem, lambda t: np.array([1.0, 0.0]))
    dlam, dg = np.split(rhs(np.concatenate([lam, [0.0]]), ent.problem.theta, 0.0), [2])
    J = np.array([[0.0, 1.0], [-0.04, 0.0]])
    assert np.allclose(dlam, J.T @ lam)
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


@pytest.mark.parametrize("checkpoints", [None, 4])
def test_discrete_adjoint_refuses_an_off_grid_observation_before_any_work(checkpoints):
    # the fixed-step mesh is known before the forward solve, so an
    # observation off it is refused without a right-hand-side call
    ent = sk.make_predprey(0.95)
    calls = []

    def rhs(u, theta, t):
        calls.append(t)
        return ent.problem.rhs(u, theta, t)

    problem = dataclasses.replace(ent.problem, rhs=rhs)
    loss = sk.SquaredErrorLoss([2.0, 5.005], np.ones((2, 2)))
    cfg = sk.SolverConfig(method="rk4", dt=0.01)
    with pytest.raises(ValueError, match=r"^observation time 5\.005 does not sit on the fixed grid$"):
        sk.gradient(problem, loss, "discrete_adjoint", cfg, checkpoints=checkpoints)
    assert calls == []


@pytest.mark.parametrize("checkpoints,peak", [(None, 1001), (4, 256)])
@pytest.mark.parametrize("variant", ["interpolating", "quadrature"])
def test_dense_adjoints_on_a_fixed_step_method_keep_no_stage_tape(variant, checkpoints, peak):
    # only the discrete adjoint reads a stage tape: a dense adjoint holds the
    # forward nodes and snapshots
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(method="rk4", dt=0.01)
    res = sk.gradient(ent.problem, ent.loss, f"continuous_{variant}", cfg, checkpoints=checkpoints)
    assert res.peak_stored_states == peak


def _bits(res):
    s = res.stats
    return (res.method, res.gradient.tobytes(),
            {k: np.asarray(v).tobytes() for k, v in res.metadata.items()},
            (s.accepted_steps, s.rejected_steps, s.rhs_evaluations, s.jacobian_evaluations),
            res.peak_stored_states)


@pytest.mark.parametrize("variant", ["interpolating", "quadrature", "backsolve"])
def test_discrete_adjoint_runs_the_discrete_variant_whatever_the_config_names(variant):
    # the entry point names the variant, so a config left at another one
    # (interpolating is the default) must not switch off the stage tape
    ent = sk.make_predprey(0.95)
    grid = sk.SolverConfig(method="rk4", dt=0.01)
    want = discrete_adjoint(ent.problem, ent.loss, AdjointConfig(variant="discrete", solver_config=grid))
    got = discrete_adjoint(ent.problem, ent.loss, AdjointConfig(variant=variant, solver_config=grid))
    assert got.method == "discrete_adjoint"
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_adjoint_entry_point_gives_the_same_bits(variant):
    ent = sk.make_harmonic(0.2)
    grid = sk.SolverConfig(method="rk4", dt=0.01)
    method = "discrete_adjoint" if variant == "discrete" else f"continuous_{variant}"
    want = _bits(sk.gradient(ent.problem, ent.loss, method, grid, checkpoints=4))
    cfg = AdjointConfig(variant=variant, solver_config=grid, checkpoints=4)
    assert _bits(continuous_adjoint(ent.problem, ent.loss, cfg)) == want
    if variant == "discrete":
        for other in VARIANTS:
            cfg = AdjointConfig(variant=other, solver_config=grid, checkpoints=4)
            assert _bits(discrete_adjoint(ent.problem, ent.loss, cfg)) == want


def test_fixed_step_backsolve_keeps_the_forward_dt_on_the_reverse_pass():
    # backsolve's one reverse interval spans the 1,000 forward steps: one
    # rk4 step over it would give a wrong gradient, so it steps at dt
    ent = sk.make_harmonic(0.2)
    grid = sk.SolverConfig(method="rk4", dt=0.01)
    res = sk.gradient(ent.problem, ent.loss, "continuous_backsolve", grid)
    disc = sk.gradient(ent.problem, ent.loss, "discrete_adjoint", grid)
    assert (res.stats.accepted_steps, res.stats.rejected_steps) == (2000, 0)
    assert abs(res.gradient[0] - disc.gradient[0]) <= 1e-10 * abs(disc.gradient[0])


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


def record_jumps(loss):
    """A copy of ``loss`` that logs the index of every jump applied from it."""
    loss = copy.copy(loss)
    plain = loss.grad_u_at
    loss.applied = []

    def counted(u, i):
        loss.applied.append(i)
        return plain(u, i)

    loss.grad_u_at = counted
    return loss


def test_discrete_adjoint_checkpoint_replay_matches_full():
    fwd = sk.SolverConfig(method="rk4", dt=0.01)
    # predprey's 101 observations sit on the grid, some on checkpoint ends
    for ent in (sk.make_harmonic(0.2), sk.make_predprey(0.95)):
        res = {}
        for ck in (None, 5):
            loss = record_jumps(ent.loss)
            cfg = AdjointConfig(variant="discrete", solver_config=fwd, checkpoints=ck)
            res[ck] = discrete_adjoint(ent.problem, loss, cfg)
            assert sorted(loss.applied) == list(range(len(loss.times)))
        assert res[5].gradient.tobytes() == res[None].gradient.tobytes()
        assert res[5].peak_stored_states < res[None].peak_stored_states


# -- continuous adjoint ------------------------------------------------


def test_interpolating_adjoint_harmonic():
    ent = sk.make_harmonic(0.2)
    res = continuous_adjoint(ent.problem, ent.loss, AdjointConfig(variant="interpolating", solver_config=tight()))
    assert res.gradient[0] == pytest.approx(-43.539778, abs=1e-5)
    assert res.gradient[0] == pytest.approx(ANALYTIC, rel=1e-6)


def test_quadrature_adjoint_matches_interpolating():
    ent = sk.make_harmonic(0.2)
    interp = continuous_adjoint(ent.problem, ent.loss, AdjointConfig(variant="interpolating", solver_config=tight()))
    quad = continuous_adjoint(ent.problem, ent.loss, AdjointConfig(variant="quadrature", solver_config=tight()))
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


@pytest.mark.parametrize("tol", [1e-6, 1e-3, 1e-2])
def test_backsolve_heat1d_16_raises_instead_of_a_wrong_gradient(tol):
    # the reversed diffusion amplifies the reconstruction error until u(t0)
    # is off by ~1e15 without a non-finite value: backsolve used to return
    # +17.92 here against the analytic -3.013.  The lost state's scaled
    # error saturates at 1/reltol (1e3 at tol 1e-3, 100 at 1e-2), under the
    # fixed bound: those returned -3.212 and -18.96 before the bound was
    # capped at half that ceiling
    ent = sk.make_heat1d(n_cells=16)
    with pytest.raises(NumericalBlowupError, match="interpolating") as err:
        sk.gradient(ent.problem, ent.loss, "continuous_backsolve",
                    sk.SolverConfig(abstol=tol, reltol=tol))
    assert "reconstruct" in str(err.value)
    assert err.value.t == ent.problem.tspan[0]


def test_a_failed_reverse_solve_reports_a_forward_time():
    # at tol 1e-8 backsolve's reverse solve of heat1d n = 16 runs out of
    # step attempts near t = 0.0025.  It stepped the clock sigma = t_right -
    # t, and the refusal used to name sigma = 0.4975 in its message, with
    # t None; the time is in its t, its message and its cause's
    ent = sk.make_heat1d(n_cells=16)
    with pytest.raises(NumericalBlowupError, match="interpolating") as err:
        sk.gradient(ent.problem, ent.loss, "continuous_backsolve",
                    sk.SolverConfig(abstol=1e-8, reltol=1e-8))
    t = err.value.t
    assert ent.problem.tspan[0] <= t <= ent.problem.tspan[1]
    assert t == pytest.approx(0.0025, abs=1e-4)
    assert f"at t={t!r}]" in str(err.value)
    cause = err.value.__cause__
    assert isinstance(cause, NonConvergenceError)
    assert (cause.t, cause.dt) == (t, err.value.dt) and str(cause).endswith(f"at t={t!r}")


@pytest.mark.parametrize("tol", [1e-2, 1e-3])
@pytest.mark.parametrize("a", [0.9, 1.1])
def test_backsolve_loose_tolerance_keeps_stable_gradients(a, tol):
    # predprey's reversed dynamics are stable: its reconstruction error reads
    # 3-6 at these tolerances, far under the capped bound of 0.5/reltol
    ent = sk.make_predprey(a)
    res = sk.gradient(ent.problem, ent.loss, "continuous_backsolve",
                      sk.SolverConfig(abstol=tol, reltol=tol))
    assert res.metadata["reconstruction_error"] <= 0.1 / tol
    ref = sk.gradient(ent.problem, ent.loss, "forward_sensitivity",
                      sk.SolverConfig(abstol=1e-10, reltol=1e-10))
    assert res.gradient[0] == pytest.approx(ref.gradient[0], rel=10 * tol)


def test_backsolve_reports_its_reconstruction_error(monkeypatch):
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    ent = sk.make_predprey(0.95)
    checks = []

    def recording(*args):
        checks.append(sk.solver.scaled_error(*args))
        return checks[-1]

    monkeypatch.setattr(adjoint_module, "scaled_error", recording)
    full = sk.gradient(ent.problem, ent.loss, "continuous_backsolve", cfg)
    monkeypatch.undo()
    # without checkpoints it compares at the 99 interior observation stops,
    # then at t0, and reports the largest: here an interior one
    assert len(checks) == 100
    assert checks[-1] == sk.solver.scaled_error(
        full.metadata["u0_recovered"], ent.problem.u0, 1e-8, 1e-8
    )
    assert full.metadata["reconstruction_error"] == max(checks) > checks[-1]
    assert 0.0 < full.metadata["reconstruction_error"] <= MAX_RECONSTRUCTION_ERROR
    # it holds the end states and the 99 observation rows
    assert full.peak_stored_states == 101
    # with checkpoints every reset is compared too and the largest error is
    # reported: here a reset's, above the one at t0
    ent = sk.make_harmonic(0.2)
    ck = sk.gradient(ent.problem, ent.loss, "continuous_backsolve", cfg, checkpoints=4)
    at_t0 = sk.solver.scaled_error(ck.metadata["u0_recovered"], ent.problem.u0, 1e-8, 1e-8)
    assert at_t0 < ck.metadata["reconstruction_error"] <= MAX_RECONSTRUCTION_ERROR


def test_backsolve_forward_pass_keeps_the_final_state_and_the_observation_rows():
    # no mesh: the rows at the observation times inside the span, then t1's
    ent = sk.make_predprey(0.95)
    theta, times = ent.problem.theta, ent.loss.times
    full = _forward_pass(ent.problem, AdjointConfig(solver_config=tight()), theta, times,
                         SolverStats())
    final = _forward_pass(ent.problem, AdjointConfig(variant="backsolve", solver_config=tight()),
                          theta, times, SolverStats())
    assert full.node_states is not None
    assert final.node_states is None
    assert final.times.tolist() == times[1:].tolist() and len(final.states) == 100
    for t, row in zip(final.times, final.states):
        assert row.tobytes() == sk.dense_eval(full, t).tobytes()
    assert final.final_state().tobytes() == full.final_state().tobytes()


def _diffusion(p):
    # 16-cell diffusion with the diffusivity piecewise constant over p
    # segments: the forward decay is fast, so its reversal loses the state
    n_cells = 16
    dx = 1.0 / n_cells
    x = np.linspace(dx, 1.0 - dx, n_cells - 1)
    segment = (np.arange(n_cells) * p) // n_cells

    def rhs(u, theta, t):
        padded = np.concatenate(([0.0], u, [0.0]))
        flux = theta[segment] * (padded[1:] - padded[:-1])
        return (flux[1:] - flux[:-1]) / (dx * dx)

    u0 = np.sin(math.pi * x) + 0.5 * np.sin(2.0 * math.pi * x)
    return sk.OdeProblem(rhs=rhs, u0=u0, tspan=(0.0, 0.5), theta=np.full(p, 0.1))


def test_backsolve_fails_at_the_first_observation_stop_that_lost_the_state(monkeypatch):
    # the reversed diffusion loses the forward state long before t0.  The
    # check at each observation stop raises at t = 0.3, the fourth interior
    # stop from t1, after 63 reverse steps; checked at t0 alone, the request
    # raised there after 320
    problem = _diffusion(1)
    times = np.linspace(0.05, 0.5, 10)
    loss = sk.LinearStateLoss(times, np.ones((10, problem.n)))
    seen = {}
    backsolve = adjoint_module._backsolve

    def spy(problem, loss, stops, sol, theta, rev, stats):
        seen.update(stats=stats, forward=sol.stats.accepted_steps)
        return backsolve(problem, loss, stops, sol, theta, rev, stats)

    monkeypatch.setattr(adjoint_module, "_backsolve", spy)
    with pytest.raises(NumericalBlowupError, match="interpolating") as err:
        sk.gradient(problem, loss, "continuous_backsolve", sk.SolverConfig(abstol=1e-8, reltol=1e-8))
    assert "reconstruct" in str(err.value)
    assert err.value.t == times[5]
    assert seen["stats"].accepted_steps - seen["forward"] == 63


@pytest.mark.parametrize("checkpoints", [None, 4])
@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_pass_keeps_what_the_variant_reads(variant, checkpoints):
    # the one storage choice: checkpoints or backsolve keep the node times
    # and end states, the discrete adjoint every node and its stage tape, the
    # dense variants every node; each keeps it from the same solve, bitwise
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(method="rk4", dt=0.1)
    full = sk.solve(ent.problem, cfg)
    sol = _forward_pass(ent.problem, AdjointConfig(variant, cfg, checkpoints), ent.problem.theta,
                        (), SolverStats())
    keeps_nodes = checkpoints is None and variant != "backsolve"
    assert (sol.node_states is not None) == keeps_nodes
    assert (sol.stage_tape is not None) == (keeps_nodes and variant == "discrete")
    assert (sol.checkpoints is not None) == (checkpoints is not None)
    assert np.asarray(sol.node_times).tobytes() == np.asarray(full.node_times).tobytes()
    assert sol.final_state().tobytes() == full.final_state().tobytes()
    if keeps_nodes:
        assert np.asarray(sol.node_states).tobytes() == np.asarray(full.node_states).tobytes()


@pytest.mark.parametrize("cfg", [
    sk.SolverConfig(abstol=1e-6, reltol=1e-6), sk.SolverConfig(abstol=1e-8, reltol=1e-8),
    sk.SolverConfig(method="rk4", dt=0.01), sk.SolverConfig(method="rk4", dt=0.003)],
    ids=["dopri5-1e-6", "dopri5-1e-8", "rk4-0.01", "rk4-0.003"])
@pytest.mark.parametrize("make", [lambda: sk.make_harmonic(0.2), lambda: sk.make_predprey(0.95),
                                  lambda: sk.make_heat1d(16)], ids=["harmonic", "predprey", "heat16"])
def test_last_snapshot_is_the_last_node_with_the_final_state(make, cfg):
    # the plan ends at t1 and only the last step reaches it, so the last
    # node is always a snapshot, with the bits of solve's final state
    problem = make().problem
    full = sk.solve(problem, cfg)
    for checkpoints in (1, 2, 3, 4, 7, 16, 64, 1000):
        for variant in ("interpolating", "backsolve", "discrete"):
            sol = _forward_pass(problem, AdjointConfig(variant, cfg, checkpoints), problem.theta,
                                (), SolverStats())
            last = len(sol.node_times) - 1
            assert list(sol.checkpoints)[-1] == last, (checkpoints, variant)
            assert sol.checkpoints[last].tobytes() == full.final_state().tobytes()


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


@pytest.mark.parametrize("variant", ["interpolating", "quadrature"])
def test_dense_adjoints_are_bitwise_equal_across_checkpoint_counts(variant):
    # the observation intervals come from the forward node times, which
    # every storage mode keeps, and a checkpointed read has the bits of a
    # full-storage one, so the gradient is the same whatever the count
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    for ent in (sk.make_harmonic(0.2), sk.make_predprey(0.95), sk.make_heat1d(16)):
        full_steps = sk.solve(ent.problem, cfg).stats.accepted_steps
        grads = {ck: sk.gradient(ent.problem, ent.loss, f"continuous_{variant}", cfg,
                                 checkpoints=ck).gradient.tobytes()
                 for ck in (None, 1, 4, 16, 64, full_steps)}
        assert len(set(grads.values())) == 1, grads


@pytest.mark.parametrize("variant", ["interpolating", "quadrature"])
def test_four_checkpoints_replay_each_segment_once(variant):
    # one checkpoint replays the whole mesh once; four replay each of their
    # segments once, so they make one DOPRI5 first-stage call per extra
    # segment more.  A dt=inf first attempt of each costate solve read the
    # far-left segment first: harmonic read 476 (interpolating) and 454
    # (quadrature), heat1d n = 16 248 and 280, against 341, 281, 179 and 167
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    for ent in (sk.make_harmonic(0.2), sk.make_heat1d(16)):
        rhs = {ck: sk.gradient(ent.problem, ent.loss, f"continuous_{variant}", cfg,
                               checkpoints=ck).stats.rhs_evaluations for ck in (1, 4)}
        assert rhs[4] == rhs[1] + 3, rhs


@pytest.mark.parametrize("variant", ["quadrature", "backsolve"])
def test_reverse_intervals_carry_the_controller_step(variant):
    # each reverse interval starts from the step the controller carried out
    # of the one before it (the first from the forward pass), not from a
    # first attempt spanning the interval, which 100 intervals of predprey
    # mostly rejected: 50 rejections (quadrature) and 32 (backsolve) with
    # it, 4 each carried
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    res = sk.gradient(ent.problem, ent.loss, f"continuous_{variant}", cfg)
    assert res.stats.rejected_steps <= 5


@pytest.mark.parametrize("variant,budget", [("quadrature", 179), ("backsolve", 153)])
def test_max_steps_bounds_each_reverse_stretch_between_stops(variant, budget):
    # predprey makes 50 forward attempts and 180 (quadrature) or 154
    # (backsolve) reverse ones over 100 stretches between its stops.  The
    # budget holds per stretch, as it did per interval: one short of the
    # pass's total still returns the default budget's gradient bytes
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    free = sk.gradient(ent.problem, ent.loss, f"continuous_{variant}", cfg)
    forward = sk.solve(ent.problem, cfg).stats
    attempts = free.stats.accepted_steps + free.stats.rejected_steps
    assert forward.accepted_steps + forward.rejected_steps == 50
    assert attempts - 50 == budget + 1
    tight = sk.gradient(ent.problem, ent.loss, f"continuous_{variant}",
                        dataclasses.replace(cfg, max_steps=budget))
    assert tight.gradient.tobytes() == free.gradient.tobytes()


def _forward_work(ent, variant, tol, checkpoints):
    """RHS calls of a dense variant's forward pass plus one replay of each segment.

    Interpolating's forward pass runs at ``INTERPOLATING_FORWARD_TOL_FACTOR``
    times the request's tolerances.  A DOPRI5 replay of a segment of m steps
    makes 1 + 6 m calls, so replaying each of k segments once adds
    k + 6 * steps.  Returns that total and the forward pass's step count.
    """
    if variant == "interpolating":
        tol = tol * adjoint_module.INTERPOLATING_FORWARD_TOL_FACTOR
    fwd = sk.SolverConfig(abstol=tol, reltol=tol)
    stats = sk.solve(ent.problem, fwd).stats
    total = stats.rhs_evaluations
    if checkpoints is not None:
        cfg = AdjointConfig(solver_config=fwd, checkpoints=checkpoints)
        snaps = _forward_pass(ent.problem, cfg, ent.problem.theta, (), SolverStats()).checkpoints
        total += len(snaps) - 1 + (DOPRI5.stages - 1) * stats.accepted_steps
    return total, stats.accepted_steps


def _spy_costate_solves(monkeypatch):
    """Log each ``_integrate_costate_interval`` call as ``[t_left, t_right, jump times]``."""
    solves = []
    integrate = adjoint_module._integrate_costate_interval

    def spy(rhs, y, t_left, t_right, *args, stops=(), jump=None, **kwargs):
        solve = [t_left, t_right, []]
        solves.append(solve)

        def logged(i, z, rows):
            solve[2].append([*stops, t_left][i])
            return jump(i, z, rows)

        return integrate(rhs, y, t_left, t_right, *args, stops=stops, jump=logged, **kwargs)

    monkeypatch.setattr(adjoint_module, "_integrate_costate_interval", spy)
    return solves


# the times of predprey's jumps inside a costate solve; t1's comes before it
PREDPREY_STOPS = [round(10.0 - 0.1 * i, 9) for i in range(1, 101)]


@pytest.mark.parametrize("variant", ["interpolating", "quadrature"])
def test_dense_adjoints_make_one_costate_solve_per_pass(variant, monkeypatch):
    # one costate solve from t1 to t0 jumps at predprey's 99 interior
    # observations and t0; one solve per interval between them made 100.
    # A checkpointed pass keeps the same stops, and each of its segments
    # replays once (at tol 1e-8, quadrature's 4 checkpoints read 605 RHS
    # calls: the forward 301 and a replay of each step), down to one
    # checkpoint per forward step; a reader that held one segment replayed
    # the segments at snapshots again (897)
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    full_steps = _forward_work(ent, variant, 1e-8, None)[1]
    solves = _spy_costate_solves(monkeypatch)
    for ck in (None, 4, full_steps):
        rhs = _forward_work(ent, variant, 1e-8, ck)[0]
        solves.clear()
        res = sk.gradient(ent.problem, ent.loss, f"continuous_{variant}", cfg, checkpoints=ck)
        assert [solve[:2] for solve in solves] == [[0.0, 10.0]], ck
        assert [round(t, 9) for t in solves[0][2]] == PREDPREY_STOPS, ck
        assert res.stats.rhs_evaluations == rhs, ck


@pytest.mark.parametrize("variant,rhs", [("interpolating", (0, 0)), ("quadrature", (0, 14))])
def test_reads_at_snapshot_nodes_replay_no_segment(variant, rhs):
    # a read that returns a snapshot node's state takes the snapshot, which
    # has that node's bits, so it replays no segment.  At 16 checkpoints a
    # segment may still replay more than once: ``rhs`` counts the calls
    # beyond the forward pass and one replay of each segment.  Heat1d's one
    # quadrature interval spans its 5 segments; the carried first attempt
    # reads segments 3 and 2, is rejected and reads 4, which lets go of both,
    # so each replays again (14).  With a dt=inf first attempt, which read
    # the far-left segment first, these read (78, 35) and (183, 49).  A
    # reader that replayed a segment holding the node made 32 more on
    # harmonic (both variants) and 26 more on heat1d n = 16, with the
    # forward pass at the request's tolerances
    cases = ((sk.make_harmonic(0.2), 1e-8), (sk.make_heat1d(16), 1e-6))
    for (ent, tol), extra in zip(cases, rhs):
        cfg = sk.SolverConfig(abstol=tol, reltol=tol)
        full = sk.gradient(ent.problem, ent.loss, f"continuous_{variant}", cfg)
        res = sk.gradient(ent.problem, ent.loss, f"continuous_{variant}", cfg, checkpoints=16)
        assert res.stats.rhs_evaluations == _forward_work(ent, variant, tol, 16)[0] + extra
        assert res.gradient.tobytes() == full.gradient.tobytes()


def test_quadrature_jacobian_calls_fall_with_one_costate_solve_per_interval():
    # the costate pays J_u per distinct reverse stage time and the Gauss
    # nodes J_theta, QUADRATURE_ORDER (4) per forward step: with one costate
    # solve per forward step and 7 nodes this read 2,530 on predprey and 558
    # on heat1d n = 16, 2,343 and 445 while the field assembled at every
    # stage, 2,044 and 385 while each interval's controller started from a
    # dt=inf attempt, and 1,944 and 375 at 7 nodes
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    calls = {}
    for name, ent in (("predprey", sk.make_predprey(0.95)), ("heat16", sk.make_heat1d(16))):
        res = sk.gradient(ent.problem, ent.loss, "continuous_quadrature", cfg)
        calls[name] = res.stats.jacobian_evaluations
    assert calls == {"predprey": 1497, "heat16": 339}


@pytest.mark.parametrize("variant", ["interpolating", "quadrature"])
@pytest.mark.parametrize("cfg", [sk.SolverConfig(abstol=1e-8, reltol=1e-8),
                                 sk.SolverConfig(method="rk4", dt=0.05)], ids=["dopri5", "rk4"])
def test_costate_field_assembles_once_per_time(variant, cfg):
    # the field is linear in the costate, so it keeps the last time's
    # Jacobians: DOPRI5's last two stages, rk4's middle two and the shared
    # ends of adjacent intervals assemble once.  Quadrature's Gauss nodes
    # read J_theta alone, so every J_u call is the costate field's
    ent = sk.make_predprey(0.95)
    times = []

    def jac_u(u, theta, t):
        times.append(t)
        return ent.problem.rhs_jac_u(u, theta, t)

    problem = dataclasses.replace(ent.problem, rhs_jac_u=jac_u)
    method = f"continuous_{variant}"
    sk.gradient(problem, ent.loss, method, cfg)
    assert times and all(a != b for a, b in zip(times, times[1:]))
    # no kept Jacobian outlives its request
    fresh = {th: sk.gradient(ent.problem, ent.loss, method, cfg, theta=[th]) for th in (1.05, 0.95)}
    for th in (0.95, 1.05, 0.95):
        res = sk.gradient(ent.problem, ent.loss, method, cfg, theta=[th])
        assert _bits(res) == _bits(fresh[th])


@functools.cache
def _error_catalog():
    """(name, problem, loss, reference gradient) of each case the factors were swept on.

    Harmonic's reference is its closed form, diffusion-fit's (``default_rng(7)``,
    p = 8, from the benchmark's workloads) its matrix-exponential gradient and
    the others' forward sensitivity at tol 1e-13.
    """
    wl = workloads()
    ref_cfg = sk.SolverConfig(abstol=1e-13, reltol=1e-13)
    harmonic = sk.make_harmonic(0.2)
    cases = [("harmonic", harmonic.problem, harmonic.loss, np.array([ANALYTIC]))]
    for name, ent in (("predprey 0.95", sk.make_predprey(0.95)),
                      ("predprey 1", sk.make_predprey(1.0)), ("heat1d 16", sk.make_heat1d(16))):
        ref = sk.gradient(ent.problem, ent.loss, "forward_sensitivity", ref_cfg).gradient
        cases.append((name, ent.problem, ent.loss, ref))
    problem, loss = wl.diffusion_fit_problem(np.random.default_rng(7), 8)
    cases.append(("diffusion-fit", problem, loss,
                  wl.diffusion_fit_gradient(problem, loss, problem.theta)))
    return cases


def _catalog_errors(method, skip=()):
    """Max-norm relative error of ``method`` per catalog case outside ``skip``.

    At tol 1e-6, 1e-8 and 1e-10, keyed ``(case name, tol)``.
    """
    errors = {}
    for name, problem, loss, ref in _error_catalog():
        if name in skip:
            continue
        for tol in (1e-6, 1e-8, 1e-10):
            cfg = sk.SolverConfig(abstol=tol, reltol=tol)
            g = sk.gradient(problem, loss, method, cfg).gradient
            errors[name, tol] = np.max(np.abs(g - ref)) / np.max(np.abs(ref))
    return errors


def _worse_than_at_the_old_factors(monkeypatch, forward, reverse):
    """The cells where interpolating at these factors errs above max(its error at (1, 3), tol)."""
    monkeypatch.setattr(adjoint_module, "INTERPOLATING_FORWARD_TOL_FACTOR", 1)
    monkeypatch.setattr(adjoint_module, "INTERPOLATING_REVERSE_TOL_FACTOR", 3)
    old = _catalog_errors("continuous_interpolating")
    monkeypatch.setattr(adjoint_module, "INTERPOLATING_FORWARD_TOL_FACTOR", forward)
    monkeypatch.setattr(adjoint_module, "INTERPOLATING_REVERSE_TOL_FACTOR", reverse)
    new = _catalog_errors("continuous_interpolating")
    return {cell: (new[cell], old[cell]) for cell in new
            if not new[cell] <= max(old[cell], cell[1])}


def test_interpolating_errs_no_more_than_at_its_old_factors(monkeypatch):
    # interpolating's gradient error is the forward pass's read error plus
    # the reverse pass's step error.  At factors (1, 3) the forward read
    # carried most of it (5.5 against 1.7 tol on harmonic at 1e-6, 720
    # against 5.6 on diffusion-fit at 1e-10), so the shipped factors move
    # the budget to the forward pass.  The rule that chose them: no catalog
    # cell errs above max(its error at (1, 3), tol)
    shipped = (adjoint_module.INTERPOLATING_FORWARD_TOL_FACTOR,
               adjoint_module.INTERPOLATING_REVERSE_TOL_FACTOR)
    assert _worse_than_at_the_old_factors(monkeypatch, *shipped) == {}


def test_the_factor_rule_refuses_a_reverse_factor_of_30(monkeypatch):
    # the rule is not vacuous: at (0.3, 30) harmonic at 1e-6 errs by 1.4e-5
    # against 3.9e-6 at (1, 3), and predprey a = 1 at 1e-10 by 2.0e-10
    worse = _worse_than_at_the_old_factors(monkeypatch, 0.3, 30)
    assert {("harmonic", 1e-6), ("predprey 1", 1e-10)} <= set(worse), worse


# quadrature's error in tol at 4 and at 7 Gauss nodes per forward step, as
# measured when QUADRATURE_ORDER went from 7 to 4 (3 nodes read 23.41 on
# predprey a = 1 at 1e-10 and 18.02 on a = 0.95 at 1e-10)
QUADRATURE_NODE_SWEEP = {  # cell: (4 nodes, 7 nodes)
    ("harmonic", 1e-6): (11.08, 11.10), ("harmonic", 1e-8): (29.20, 29.25),
    ("harmonic", 1e-10): (75.08, 75.07),
    ("predprey 0.95", 1e-6): (6.509, 6.509), ("predprey 0.95", 1e-8): (7.987, 7.978),
    ("predprey 0.95", 1e-10): (17.19, 17.27),
    ("predprey 1", 1e-6): (0.1415, 0.1415), ("predprey 1", 1e-8): (6.992, 6.992),
    ("predprey 1", 1e-10): (9.851, 16.32),
    ("heat1d 16", 1e-6): (3.379, 3.380), ("heat1d 16", 1e-8): (5.298, 5.313),
    ("heat1d 16", 1e-10): (36.65, 36.67),
}


def _worse_than_at_seven_gauss_nodes(monkeypatch, order):
    """The cells where quadrature at ``order`` nodes errs above max(factor x its error at 7, tol).

    ``factor`` is the largest 4-node/7-node ratio of the measured sweep,
    rounded up to the next percent (1.01): the rule that chose 4 nodes.
    """
    factor = math.ceil(100 * max(a / b for a, b in QUADRATURE_NODE_SWEEP.values())) / 100
    skip = ("diffusion-fit",)
    monkeypatch.setattr(adjoint_module, "QUADRATURE_ORDER", 7)
    old = _catalog_errors("continuous_quadrature", skip)
    monkeypatch.setattr(adjoint_module, "QUADRATURE_ORDER", order)
    new = _catalog_errors("continuous_quadrature", skip)
    assert set(new) == set(QUADRATURE_NODE_SWEEP)
    return {cell: (new[cell], old[cell]) for cell in new
            if not new[cell] <= max(factor * old[cell], cell[1])}


def test_quadrature_errs_no_more_than_at_seven_gauss_nodes(monkeypatch):
    # the shipped rule is the fewest nodes exact for the integrand on a
    # piece (QUADRATURE_ORDER's comment); the extra 3 of the old 7 bought
    # no accuracy on the catalog
    shipped = adjoint_module.QUADRATURE_ORDER
    assert _worse_than_at_seven_gauss_nodes(monkeypatch, shipped) == {}


def test_the_node_rule_refuses_three_gauss_nodes(monkeypatch):
    # the rule is not vacuous: at 3 nodes predprey a = 1 at 1e-10 errs by
    # 23.4 tol against 16.3 at 7
    worse = _worse_than_at_seven_gauss_nodes(monkeypatch, 3)
    assert ("predprey 1", 1e-10) in worse, worse


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("case", ["harmonic", "predprey"])
def test_interpolating_reverse_pass_alone_errs_within_two_tol(case, tol):
    # the interpolating reverse pass's own step error, stepped at 3 times
    # tol, stays within 2 tol.  With the forward pass at 1e-13 its reads err
    # by next to nothing, so the gradient error below is the reverse pass's
    # own.  This pins the reverse integration's accuracy against the
    # tolerance it steps at, not the shipped split: at the shipped
    # INTERPOLATING_REVERSE_TOL_FACTOR (10) the reverse half reads 4-6 tol on
    # harmonic, and the tighter forward pass pays for it (see
    # test_interpolating_errs_no_more_than_at_its_old_factors).  Harmonic
    # reads 1.65 tol at 1e-6; predprey 0.95 reads 0.43 tol or less (its
    # reference's floor at 1e-10)
    if case == "harmonic":
        ent, ref = sk.make_harmonic(0.2), ANALYTIC
    else:
        ent = sk.make_predprey(0.95)
        ref = sk.gradient(ent.problem, ent.loss, "forward_sensitivity",
                          sk.SolverConfig(abstol=1e-12, reltol=1e-12)).gradient[0]
    problem, loss, theta = check_request(ent.problem, ent.loss, None)
    stats = SolverStats()
    problem = _counted(problem, stats)
    fwd = AdjointConfig(solver_config=sk.SolverConfig(abstol=1e-13, reltol=1e-13))
    sol = _forward_pass(problem, fwd, theta, loss.times, stats)
    stops = adjoint_module._observation_stops(loss, sol.node_times.tolist(),
                                              span_tol(*problem.tspan))
    rev = adjoint_module._scaled(sk.SolverConfig(abstol=tol, reltol=tol, dt=math.inf), 3)
    g, lam, _, _ = adjoint_module._dense_reverse(problem, loss, stops, sol, theta, rev, stats,
                                                 False)
    grad = g + problem.initial_state_jacobian().T @ lam
    assert abs(grad[0] - ref) <= 2.0 * tol * abs(ref)


def test_interpolating_reverse_tolerances_stay_finite():
    # the loosened reverse tolerances are capped at the largest float, so a
    # finite request tolerance near it is not refused as infinite
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e308, reltol=1e-6)
    res = sk.gradient(ent.problem, ent.loss, "continuous_interpolating", cfg)
    assert np.isfinite(res.gradient).all()


def test_interpolating_forward_tolerances_stay_positive():
    # the tightened forward tolerances are floored at the smallest positive
    # float: 0.3 * 5e-324 rounds to 0.0, which SolverConfig refuses, though
    # the request itself is legal
    assert adjoint_module.INTERPOLATING_FORWARD_TOL_FACTOR * 5e-324 == 0.0
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=5e-324, reltol=1e-6)
    res = sk.gradient(ent.problem, ent.loss, "continuous_interpolating", cfg)
    assert res.gradient[0] == pytest.approx(ANALYTIC, rel=1e-4)


@pytest.mark.parametrize("cfg", [sk.SolverConfig(method="rk4", dt=0.05),
                                 sk.SolverConfig(method="euler", dt=0.01)], ids=["rk4", "euler"])
def test_interpolating_on_a_fixed_step_method_ignores_the_factors(cfg, monkeypatch):
    # a fixed step has no tolerance to scale: both passes keep the request's
    # config, so the factors move no bit or count
    ent = sk.make_predprey(0.95)
    shipped = {ck: _bits(sk.gradient(ent.problem, ent.loss, "continuous_interpolating", cfg,
                                     checkpoints=ck)) for ck in (None, 4)}
    monkeypatch.setattr(adjoint_module, "INTERPOLATING_FORWARD_TOL_FACTOR", 1)
    monkeypatch.setattr(adjoint_module, "INTERPOLATING_REVERSE_TOL_FACTOR", 3)
    for ck in (None, 4):
        res = sk.gradient(ent.problem, ent.loss, "continuous_interpolating", cfg, checkpoints=ck)
        assert _bits(res) == shipped[ck], ck


def test_segment_reader_reads_the_bits_of_full_storage():
    # a checkpointed pass reads the forward state through a reader over its
    # replayed segments: every read, near-node ones included, has the bits
    # of dense_eval on the full mesh.  The node within the full span's tol
    # (1e-8) decides, not a 2.5-long segment's own (1e-9)
    ent = sk.make_predprey(0.95)
    fwd = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    theta = ent.problem.theta

    def forward(checkpoints):
        cfg = AdjointConfig(solver_config=fwd, checkpoints=checkpoints)
        return _forward_pass(ent.problem, cfg, theta, (), SolverStats())

    full, ckpt = forward(None), forward(4)
    reader = adjoint_module._SegmentReader(ent.problem, ckpt, theta, DOPRI5)
    replays = []
    replay = reader.replay
    reader.replay = lambda k: replays.append(k) or replay(k)
    ts = full.node_times
    tol = 1e-8
    rng = np.random.default_rng(3)
    times = np.sort(np.concatenate([
        rng.uniform(0.0, 10.0, 200), ts, ts[1:-1] + 0.5 * tol, ts[1:-1] - 0.5 * tol,
        ts[1:-1] + 2 * tol, [-0.5 * tol, 10.0 + 0.5 * tol]]))[::-1]
    for t in times.tolist():
        assert reader(t).tobytes() == sk.dense_eval(full, t).tobytes(), t
    assert reader(times[::-1]).tobytes() == sk.dense_eval(full, times[::-1]).tobytes()
    # right to left, each segment replays once; then the array read,
    # left to right, finds segment 0 held and replays the other three
    assert replays == [3, 2, 1, 0, 2, 3]
    seg_nodes = np.diff(list(ckpt.checkpoints)) + 1
    assert reader.peak == 5 + max(seg_nodes[:-1] + seg_nodes[1:])


def test_segment_reader_refuses_what_dense_eval_refuses():
    # the reader claims dense_eval's reads, so it takes its checks: a time
    # outside the span raises (it read the last step's cubic extrapolated,
    # [4.546, -0.416] at t = 20 on harmonic), no times read a (0, n) block
    # (not (0,)) and a list reads as an array (it raised TypeError)
    ent = sk.make_harmonic(0.2)
    theta = ent.problem.theta

    def forward(checkpoints):
        cfg = AdjointConfig(solver_config=sk.SolverConfig(abstol=1e-8, reltol=1e-8),
                            checkpoints=checkpoints)
        return _forward_pass(ent.problem, cfg, theta, (), SolverStats())

    full, ckpt = forward(None), forward(4)
    reader = adjoint_module._SegmentReader(ent.problem, ckpt, theta, DOPRI5)
    for t in (20.0, -1.0, math.nan, [5.0, 20.0], np.array([[1.0]])):
        with pytest.raises(ValueError) as want:
            sk.dense_eval(full, t)
        with pytest.raises(ValueError) as got:
            reader(t)
        assert str(got.value) == str(want.value), t
    for t in (np.array([]), [], [2.0, 7.5], (0.0, 10.0)):
        assert reader(t).shape == sk.dense_eval(full, t).shape, t
        assert reader(t).tobytes() == sk.dense_eval(full, t).tobytes(), t


def test_each_observation_stops_at_the_node_its_read_returns():
    # an observation stops every reverse pass at the node whose state
    # dense_eval returns bitwise at its time, else at its own time; within
    # tol of the observation before it, at that one's stop
    ts = np.array([0.0, 0.7, 1.3, 2.0, 3.1, 4.0])
    tol = 1e-9 * 4.0
    rng = np.random.default_rng(5)
    states = rng.normal(size=(6, 2))
    sol = Solution(times=ts, states=states, node_times=ts, node_states=states,
                      node_derivs=rng.normal(size=(6, 2)), stats=SolverStats())
    want = {
        -0.5 * tol: 0.0, 0.7: 0.7, 2.0: 2.0, 4.0: 4.0,   # on the ends and nodes
        4.0 + 0.5 * tol: 4.0,                            # outside the span within tol
        0.35: 0.35, 2.5: 2.5, 3.6: 3.6,                  # off the mesh
        1.3 + 0.9 * tol: 1.3, 3.1 - 0.5 * tol: 3.1,      # within tol of a node
        2.8: 2.8, 2.8 + 0.6 * tol: 2.8,                  # within tol of each other,
        2.8 + 1.2 * tol: 2.8 + 1.2 * tol,                # but 1.2 tol from the first
        1.3 + 1.5 * tol: 1.3 + 1.5 * tol,                # just outside tol of a node
    }
    times = sorted(want)
    loss = record_jumps(sk.LinearStateLoss(times, np.ones((len(times), 2))))
    table = adjoint_module._observation_stops(loss, ts.tolist(), tol)
    stops = {times[i]: stop for stop, at in table.items() for i in at}
    assert stops == {t: want[t] for t in times}
    node = dict(zip(ts.tolist(), states))
    for t, stop in stops.items():
        read = sk.dense_eval(sol, t).tobytes()
        if stop in node:
            assert read == node[stop].tobytes(), t
        else:
            assert read not in [u.tobytes() for u in states], t
    # the table applies each observation once, at its stop
    for stop in sorted(set(stops.values()), reverse=True):
        before = len(loss.applied)
        adjoint_module._jump(loss, np.zeros(2), table.get(stop, ()), np.zeros(2))
        assert [stops[times[i]] for i in loss.applied[before:]] == [stop] * (len(loss.applied) - before)
    assert sorted(loss.applied) == list(range(len(times)))


@pytest.mark.parametrize("variant", ["interpolating", "quadrature"])
def test_a_loss_without_an_observation_at_t1_replays_each_segment_once(variant, monkeypatch):
    # the reverse pass still stops at t1 and reads the state there for its
    # jumps, none here: the last node is a snapshot, so that read replays
    # nothing, and each of the 4 segments replays once, right to left.  The
    # peak is the 5 snapshots and two segments' nodes of the variant's
    # forward mesh (interpolating's is the denser)
    ent = sk.make_harmonic(0.2)
    loss = sk.SquaredErrorLoss([2.5, 5.0, 7.3], np.ones((3, 2)))
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    replays = []
    segments = adjoint_module._segments_reverse

    def spy(*args, **kwargs):
        replays.append(kwargs.get("last"))
        return segments(*args, **kwargs)

    monkeypatch.setattr(adjoint_module, "_segments_reverse", spy)
    res = sk.gradient(ent.problem, loss, f"continuous_{variant}", cfg, checkpoints=4)
    assert replays == [3, 2, 1, 0]
    assert res.stats.rhs_evaluations == _forward_work(ent, variant, 1e-8, 4)[0]
    assert res.peak_stored_states == {"interpolating": 23, "quadrature": 20}[variant]


@pytest.mark.parametrize("cfg", [sk.SolverConfig(method="rk4", dt=0.01),
                                 sk.SolverConfig(abstol=1e-8, reltol=1e-8)], ids=["rk4", "dopri5"])
def test_continuous_adjoints_solve_over_the_same_intervals(cfg, monkeypatch):
    # every continuous adjoint makes one costate solve that jumps at the
    # same stops: predprey's 99 interior observations and t0.  On rk4 they
    # sit within tol of nodes, where backsolve stopped at the observation
    # time itself, next to the node, and took a reverse step over the
    # sliver between them
    ent = sk.make_predprey(0.95)
    solves = _spy_costate_solves(monkeypatch)
    jumps = {}
    for variant in ("backsolve", "interpolating", "quadrature"):
        solves.clear()
        sk.gradient(ent.problem, ent.loss, f"continuous_{variant}", cfg)
        assert len(solves) == 1, variant
        jumps[variant] = solves[0][2]
    assert [round(t, 9) for t in jumps["interpolating"]] == PREDPREY_STOPS
    assert jumps["backsolve"] == jumps["interpolating"] == jumps["quadrature"]


def test_each_observation_jump_applies_once_with_and_without_checkpoints():
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    nodes = sk.solve(ent.problem, cfg).node_times
    snaps = _forward_pass(ent.problem, AdjointConfig(solver_config=cfg, checkpoints=4),
                          ent.problem.theta, (), SolverStats())
    tol = 1e-9 * 10.0
    times = np.unique(np.concatenate([
        np.linspace(0.0, 10.0, 21),                         # t0, t1 and interior
        nodes[[7, 30]],                                     # on nodes
        [nodes[12] + 0.5 * tol, nodes[40] - 0.5 * tol],     # within tol of a node
        # within tol of each other: the middle one is within tol of both
        # interval ends the other two make
        [4.33, 4.33 + 0.6 * tol, 4.33 + 1.2 * tol],
        snaps.node_times[list(snaps.checkpoints)[1:-1]],    # checkpoint segment ends
    ]))
    # the squared error's gradient reads the state, so it also checks that a
    # jump reads the node an observation snapped to, not a Hermite value of
    # the checkpoint segment (1e-10 apart here)
    losses = (sk.LinearStateLoss(times, np.ones((len(times), 2))),
              sk.SquaredErrorLoss(times, np.ones((len(times), 2))))
    for method in ("interpolating", "quadrature", "backsolve"):
        for plain in losses:
            grads = {}
            for ck in (None, 4):
                loss = record_jumps(plain)
                res = sk.gradient(ent.problem, loss, f"continuous_{method}", cfg,
                                  checkpoints=ck)
                assert sorted(loss.applied) == list(range(len(times)))
                grads[ck] = res.gradient
            # backsolve's checkpoints reset its reconstructed state by design
            if method != "backsolve":
                assert grads[4].tobytes() == grads[None].tobytes(), (method, type(plain))


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


def test_quadrature_stores_what_interpolating_stores(monkeypatch):
    # quadrature's costate solve returns only its rows at the Gauss nodes and
    # the interval's end, which are working rows: it keeps no costate mesh,
    # so its peak is the forward storage, as interpolating's is.  On the same
    # forward mesh the two store alike; interpolating's own forward pass, at
    # INTERPOLATING_FORWARD_TOL_FACTOR times the request's tolerances, keeps
    # more nodes: 64 against 51 at full storage, 39 against 33 at 4 checkpoints
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    for ck, more in ((None, (64, 51)), (4, (39, 33))):
        peaks = tuple(sk.gradient(ent.problem, ent.loss, f"continuous_{v}", cfg,
                                  checkpoints=ck).peak_stored_states
                      for v in ("interpolating", "quadrature"))
        assert peaks == more, ck
    monkeypatch.setattr(adjoint_module, "INTERPOLATING_FORWARD_TOL_FACTOR", 1)
    for ck in (None, 4):
        interp = sk.gradient(ent.problem, ent.loss, "continuous_interpolating", cfg,
                             checkpoints=ck)
        quad = sk.gradient(ent.problem, ent.loss, "continuous_quadrature", cfg,
                           checkpoints=ck)
        assert quad.peak_stored_states == interp.peak_stored_states, ck


def test_quadrature_integrand_evaluates_only_the_theta_jacobian():
    # the costate field reads J_u alone and the Gauss nodes J_theta alone:
    # the analytic ones, or a multidual right-hand side seeded in u only
    # (arity n = 2 on harmonic) or in theta only (arity p = 1)
    ent = sk.make_harmonic(0.2)
    calls = {"jac_u": 0, "jac_theta": 0}

    def counted(name, fn):
        def jac(u, theta, t):
            calls[name] += 1
            return fn(u, theta, t)
        return jac

    analytic = dataclasses.replace(
        ent.problem, rhs_jac_u=counted("jac_u", ent.problem.rhs_jac_u),
        rhs_jac_theta=counted("jac_theta", ent.problem.rhs_jac_theta))
    arities = []

    def rhs(u, theta, t):
        if isinstance(u, dual.MultiDual) or isinstance(theta, dual.MultiDual):
            arities.append((u if isinstance(u, dual.MultiDual) else theta).arity)
        return ent.problem.rhs(u, theta, t)

    stripped = dataclasses.replace(ent.problem, rhs=rhs, rhs_jac_u=None, rhs_jac_theta=None)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    a = sk.gradient(analytic, ent.loss, "continuous_quadrature", cfg)
    s = sk.gradient(stripped, ent.loss, "continuous_quadrature", cfg)
    # the one observation sits on t1: one reverse interval, and the rule
    # applied on each forward step inside it
    steps = len(sk.solve(ent.problem, cfg).node_times) - 1
    assert calls["jac_theta"] == adjoint_module.QUADRATURE_ORDER * steps
    assert a.stats.jacobian_evaluations == calls["jac_u"] + calls["jac_theta"]
    assert arities.count(1) == calls["jac_theta"]
    assert arities.count(2) == calls["jac_u"]
    assert set(arities) == {1, 2}
    assert abs(s.gradient[0] - a.gradient[0]) <= 1e-12 * abs(a.gradient[0])


def test_quadrature_order_convergence(monkeypatch):
    ent = sk.make_harmonic(0.2)
    cfg = AdjointConfig(variant="quadrature", solver_config=tight())
    shipped = sk.adjoint.QUADRATURE_ORDER
    vals = {}
    for order in (shipped, 15):
        monkeypatch.setattr(sk.adjoint, "QUADRATURE_ORDER", order)
        vals[order] = continuous_adjoint(ent.problem, ent.loss, cfg).gradient[0]
    assert abs(vals[shipped] - vals[15]) <= 1e-9 * abs(ANALYTIC)


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
    assert res.gradient[0] == pytest.approx(fs.gradient[0], rel=1e-7)


def test_adjoint_config_validation():
    with pytest.raises(ValueError):
        AdjointConfig(variant="mystery")
    with pytest.raises(ValueError):
        AdjointConfig(checkpoints=0)


@pytest.mark.parametrize("checkpoints", [True, False, 2.5, 4.0, "4", 0, -1])
def test_checkpoint_count_must_be_an_integer_of_at_least_one(checkpoints):
    # True once meant 1 checkpoint, and a float failed inside the forward
    # pass with numpy's TypeError
    with pytest.raises(ValueError, match="integer of at least 1"):
        AdjointConfig(checkpoints=checkpoints)
    ent = sk.make_harmonic(0.2)
    with pytest.raises(ValueError, match="integer of at least 1"):
        sk.gradient(ent.problem, ent.loss, "continuous_interpolating", tight(),
                    checkpoints=checkpoints)


def test_checkpoint_count_may_be_a_numpy_integer():
    ent = sk.make_harmonic(0.2)
    want = sk.gradient(ent.problem, ent.loss, "continuous_interpolating", tight(), checkpoints=4)
    got = sk.gradient(ent.problem, ent.loss, "continuous_interpolating", tight(),
                      checkpoints=np.int64(4))
    assert got.gradient.tobytes() == want.gradient.tobytes()


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
    with pytest.raises(TypeError, match="unknown loss specification object"):
        discrete_adjoint(problem, loss, cfg)
    assert calls == []


@pytest.mark.parametrize("make,rk4_dt", [
    (lambda: sk.make_harmonic(0.2), 1e-3),
    (lambda: sk.make_predprey(1.0), 2e-3),
    (lambda: sk.make_heat1d(32, 0.1), 1e-3),
])
@pytest.mark.parametrize("variant", VARIANTS)
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
