import dataclasses
import math

import numpy as np
import pytest

import sensikit as sk
from sensikit.dual import MultiDual
from sensikit.sensitivity import forward_sensitivity, jacobian_assembly
from shared import stripped


def test_sensitivity_rhs_zero_when_autonomous_constant():
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: np.array([1.0, -2.0]),
        u0=[0.0, 0.0],
        tspan=(0.0, 1.0),
        theta=[0.3],
    )
    s = np.zeros((2, 1))
    _, ds, du = jacobian_assembly(prob, prob.u0, prob.theta, 0.0, f=True, u_theta=s)
    assert np.array_equal(ds, np.zeros((2, 1)))


def test_sensitivity_rhs_harmonic_formula():
    ent = sk.make_harmonic(0.2)
    u = np.array([1.5, -0.3])
    s = np.array([[2.0], [1.0]])
    _, ds, du = jacobian_assembly(ent.problem, u, ent.problem.theta, 0.0, f=True, u_theta=s)
    J = np.array([[0.0, 1.0], [-0.04, 0.0]])
    Jt = np.array([[0.0], [-2 * 0.2 * u[0]]])
    assert np.allclose(du, [u[1], -0.04 * u[0]])
    assert np.allclose(ds, J @ s + Jt)


def test_sensitivity_stays_zero_without_parameter_dependence():
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: -u, u0=[1.0], tspan=(0.0, 1.0), theta=[0.5]
    )
    _, ds, du = jacobian_assembly(prob, np.array([1.0]), prob.theta, 0.0, f=True,
                                  u_theta=np.zeros((1, 1)))
    assert np.array_equal(ds, np.zeros((1, 1)))


def test_jacobian_assembly_returns_analytic_verbatim():
    sentinel_u = np.full((2, 2), 7.25)
    sentinel_t = np.full((2, 1), -3.5)
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: u,
        u0=[1.0, 1.0],
        tspan=(0.0, 1.0),
        theta=[0.1],
        rhs_jac_u=lambda u, p, t: sentinel_u,
        rhs_jac_theta=lambda u, p, t: sentinel_t,
    )
    J_u, J_t, f = jacobian_assembly(prob, prob.u0, prob.theta, 0.0)
    assert np.array_equal(J_u, sentinel_u)
    assert np.array_equal(J_t, sentinel_t)
    assert f is None  # no right-hand side was evaluated


def test_jacobian_assembly_linear_rhs_multidual():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 2))

    def rhs(u, p, t):
        return A @ u + B @ p

    prob = sk.OdeProblem(rhs=rhs, u0=np.zeros(3), tspan=(0.0, 1.0), theta=np.zeros(2))
    u, p = rng.normal(size=3), rng.normal(size=2)
    J_u, J_t, f = jacobian_assembly(prob, u, p, 0.0, f=True)
    assert np.allclose(J_u, A, atol=1e-14)
    assert np.allclose(J_t, B, atol=1e-14)
    # the value coordinate of the multidual call is the float evaluation
    assert f.tobytes() == rhs(u, p, 0.0).tobytes()


def test_jacobian_assembly_harmonic_theta_column():
    ent = sk.make_harmonic(0.2)
    bare = sk.OdeProblem(
        rhs=ent.problem.rhs, u0=ent.problem.u0, tspan=ent.problem.tspan,
        theta=ent.problem.theta,
    )
    _, J_t, _ = jacobian_assembly(bare, np.array([1.0, 0.0]), np.array([0.2]), 0.0)
    assert np.allclose(J_t, [[0.0], [-0.4]], atol=1e-14)


def test_jacobian_assembly_partial_analytic():
    ent = sk.make_harmonic(0.2)
    only_u = sk.OdeProblem(
        rhs=ent.problem.rhs, u0=ent.problem.u0, tspan=ent.problem.tspan,
        theta=ent.problem.theta, rhs_jac_u=ent.problem.rhs_jac_u,
    )
    u = np.array([0.7, -1.1])
    J_u, J_t, _ = jacobian_assembly(only_u, u, np.array([0.2]), 0.0)
    assert np.allclose(J_u, [[0.0, 1.0], [-0.04, 0.0]])
    assert np.allclose(J_t, [[0.0], [-2 * 0.2 * 0.7]], atol=1e-14)


def test_a_value_error_of_the_rhs_without_an_analyticity_cause_reaches_the_caller():
    # the multidual call unwraps only the AnalyticityError numpy wraps in a
    # ValueError; any other ValueError of the right-hand side comes back as it is
    for cause in (None, KeyError("state"), ValueError("inner")):
        raised = ValueError("the rhs refuses this state")
        raised.__cause__ = cause

        def rhs(u, theta, t, raised=raised):
            raise raised

        problem = sk.OdeProblem(rhs=rhs, u0=[1.0], tspan=(0.0, 1.0), theta=[0.5])
        with pytest.raises(ValueError) as err:
            jacobian_assembly(problem, problem.u0, problem.theta, 0.0)
        assert err.value is raised and err.value.__cause__ is cause


PARTS = ("jac_u", "jac_theta", "f")


# analytic, partly analytic and stripped Jacobians
ASSEMBLY_CASES = [
    pytest.param(sk.make_harmonic(0.2).problem, id="harmonic"),
    pytest.param(dataclasses.replace(sk.make_predprey(0.95).problem, rhs_jac_theta=None),
                 id="predprey-no-jac-theta"),
    pytest.param(stripped(sk.make_predprey(0.95).problem), id="predprey-stripped"),
    pytest.param(stripped(sk.make_heat1d(16).problem), id="heat16-stripped"),
]


@pytest.mark.parametrize("problem", ASSEMBLY_CASES)
def test_each_assembly_part_alone_is_the_full_calls_bitwise(problem):
    rng = np.random.default_rng(19)
    for _ in range(5):
        u = rng.normal(size=problem.n)
        theta = problem.theta + 0.1 * rng.normal(size=problem.p)
        t = float(rng.uniform(*problem.tspan))
        full = jacobian_assembly(problem, u, theta, t, f=True)
        for k, part in enumerate(PARTS):
            alone = jacobian_assembly(problem, u, theta, t,
                                      **{p: p == part for p in PARTS})
            assert [x is None for x in alone] == [j != k for j in range(3)], part
            assert alone[k].tobytes() == full[k].tobytes(), part


@pytest.mark.parametrize("problem", ASSEMBLY_CASES)
def test_assembly_neither_calls_nor_seeds_a_part_not_read(problem):
    calls = {"jac_u": 0, "jac_theta": 0, "rhs": []}

    def counted(key, fn):
        if fn is None:
            return None

        def jac(u, theta, t):
            calls[key] += 1
            return fn(u, theta, t)
        return jac

    def rhs(u, theta, t):
        duals = [x for x in (u, theta) if isinstance(x, MultiDual)]
        calls["rhs"].append(duals[0].arity if duals else None)
        return problem.rhs(u, theta, t)

    counting = dataclasses.replace(
        problem, rhs=rhs, rhs_jac_u=counted("jac_u", problem.rhs_jac_u),
        rhs_jac_theta=counted("jac_theta", problem.rhs_jac_theta))
    n, p = problem.n, problem.p
    for mask in range(1, 8):
        want = {part: bool(mask >> k & 1) for k, part in enumerate(PARTS)}
        calls.update(jac_u=0, jac_theta=0, rhs=[])
        out = jacobian_assembly(counting, problem.u0, problem.theta, 0.0, **want)
        assert [x is not None for x in out] == list(want.values())
        seed_u = want["jac_u"] and problem.rhs_jac_u is None
        seed_theta = want["jac_theta"] and problem.rhs_jac_theta is None
        assert calls["jac_u"] == int(want["jac_u"] and not seed_u)
        assert calls["jac_theta"] == int(want["jac_theta"] and not seed_theta)
        if seed_u or seed_theta:
            # one multidual call, seeded in exactly the missing directions read
            assert calls["rhs"] == [n * seed_u + p * seed_theta]
        else:
            assert calls["rhs"] == ([None] if want["f"] else [])


def test_augmented_layout_state_then_columns():
    # the packed state starts at u0 then the columns of du0/dtheta, so the
    # first sensitivity row is the initial-state Jacobian, column by column
    problem = sk.OdeProblem(
        rhs=lambda u, p, t: np.array([u[1] * p[0], -u[0] * p[1]]),
        u0=[1.0, 0.5], tspan=(0.0, 1.0), theta=[0.3, 0.7],
        u0_jacobian=[[0.0, 1.0], [2.0, 0.0]],
    )
    loss = sk.LinearStateLoss([1.0], [[1.0, 0.0]])
    res = forward_sensitivity(problem, loss, sk.SolverConfig(method="rk4", dt=0.1))
    assert res.trajectory_times[0] == 0.0
    assert res.sensitivity_trajectory.shape == (11, 2, 2)
    assert np.array_equal(res.sensitivity_trajectory[0], problem.initial_state_jacobian())


def test_forward_sensitivity_harmonic_gradient():
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    res = forward_sensitivity(ent.problem, ent.loss, cfg)
    assert res.gradient[0] == pytest.approx(-43.539778, abs=1e-5)
    assert res.gradient[0] == pytest.approx(ent.analytic_gradient()[0], rel=1e-6)


def test_forward_sensitivity_trajectory_component():
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-12, reltol=1e-12)
    res = forward_sensitivity(ent.problem, ent.loss, cfg)
    s_final = res.sensitivity_trajectory[-1]
    # d(cos(theta t))/dtheta at t=10: -10 sin(2)
    assert s_final[1, 0] == pytest.approx(-10 * math.sin(2.0), rel=1e-8)
    assert s_final[1, 0] == pytest.approx(-9.092974, abs=1e-6)


def test_forward_sensitivity_predprey_reference():
    ent = sk.make_predprey(1.0)
    cfg = sk.SolverConfig(abstol=1e-12, reltol=1e-12)
    res = forward_sensitivity(ent.problem, ent.loss, cfg)
    assert res.gradient[0] == pytest.approx(212.71042521681443, rel=1e-6)


@pytest.mark.parametrize("method,dt", [("euler", 0.01), ("rk4", 0.02)])
def test_fixed_grid_trajectory_matches_forward_ad(method, dt):
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(method=method, dt=dt)
    fs = forward_sensitivity(ent.problem, ent.loss, cfg)
    ad = sk.forwardad_gradient(ent.problem, ent.loss, cfg)
    assert fs.trajectory_times.shape == ad.trajectory_times.shape
    scale = np.max(np.abs(fs.sensitivity_trajectory)) or 1.0
    diff = np.max(np.abs(fs.sensitivity_trajectory - ad.sensitivity_trajectory))
    assert diff / scale <= 1e-12


@pytest.mark.parametrize("make", [sk.make_harmonic, sk.make_predprey,
                                  lambda: sk.make_heat1d(16, 0.1)])
def test_gradient_matches_centered_fd(make):
    ent = make() if make.__name__ == "<lambda>" else make()
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    res = forward_sensitivity(ent.problem, ent.loss, cfg)
    fn = sk.direct.solver_loss_fn(ent.problem, ent.loss, cfg)
    fd = sk.fd_gradient(fn, ent.problem.theta, 1e-6, scheme="centered")
    assert np.linalg.norm(res.gradient - fd) / np.linalg.norm(fd) <= 1e-4


def test_zero_parameter_dependence_gives_exact_zero():
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: np.array([-u[0]]),
        u0=[2.0],
        tspan=(0.0, 1.0),
        theta=[0.4],
    )
    loss = sk.LinearStateLoss([1.0], [[1.0]])
    res = forward_sensitivity(prob, loss, sk.SolverConfig())
    assert res.gradient[0] == 0.0


def test_initial_condition_dependence_enters_gradient():
    # theta is the initial condition of du/dt = -u: dL/dtheta = exp(-1)
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: np.array([-u[0]]),
        u0=[1.0],
        tspan=(0.0, 1.0),
        theta=[1.0],
        u0_jacobian=[[1.0]],
    )
    loss = sk.LinearStateLoss([1.0], [[1.0]])
    res = forward_sensitivity(prob, loss, sk.SolverConfig(abstol=1e-10, reltol=1e-10))
    assert res.gradient[0] == pytest.approx(math.exp(-1.0), rel=1e-8)


def test_dual_and_jacobian_routes_agree_on_nontrivial_dynamics():
    # forward AD propagates tangents through the arithmetic; the augmented
    # system uses assembled Jacobians -- mathematically the same ODE under
    # the same error control, so the gradients must coincide
    ent = sk.make_predprey(1.5)
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    fs = forward_sensitivity(ent.problem, ent.loss, cfg).gradient[0]
    ad = sk.forwardad_gradient(
        ent.problem, ent.loss,
        sk.SolverConfig(abstol=1e-10, reltol=1e-10, saveat=ent.loss.times),
    ).gradient[0]
    assert abs(fs - ad) / abs(fs) <= 1e-10


def _counting_kinds(problem):
    calls = {"float": 0, "dual": 0}

    def rhs(u, p, t):
        calls["dual" if isinstance(u, MultiDual) or isinstance(p, MultiDual) else "float"] += 1
        return problem.rhs(u, p, t)

    return dataclasses.replace(problem, rhs=rhs), calls


@pytest.mark.parametrize("method,rhs_calls,jac_calls", [
    ("forward_sensitivity", 205, 410),
    ("continuous_backsolve", 296, 314),
])
def test_multidual_jacobian_call_supplies_the_rhs_value(method, rhs_calls, jac_calls):
    # where the Jacobians come from a multidual right-hand side, f(u) is that
    # call's value coordinate: one evaluation per point instead of a float
    # one besides (stripped harmonic forward sensitivity: 410 -> 205)
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    analytic, analytic_calls = _counting_kinds(ent.problem)
    stripped, stripped_calls = _counting_kinds(
        dataclasses.replace(ent.problem, rhs_jac_u=None, rhs_jac_theta=None)
    )
    a = sk.gradient(analytic, ent.loss, method, cfg)
    s = sk.gradient(stripped, ent.loss, method, cfg)
    # analytic Jacobians: the float calls and Jacobian pairs they always made
    assert (a.stats.rhs_evaluations, a.stats.jacobian_evaluations) == (rhs_calls, jac_calls)
    assert analytic_calls == {"float": rhs_calls, "dual": 0}
    assert (s.stats.rhs_evaluations, s.stats.jacobian_evaluations) == (rhs_calls, 0)
    assert sum(stripped_calls.values()) == rhs_calls
    if method == "forward_sensitivity":
        assert stripped_calls["float"] == 0
    assert s.stats.accepted_steps == a.stats.accepted_steps
    assert s.gradient.tobytes() == a.gradient.tobytes()


def _diffusion_problem(n_cells=8, p=4):
    # flux-form diffusion with a piecewise constant diffusivity and no
    # analytic Jacobians: every dual operation acts on a whole array
    segment = (np.arange(n_cells) * p) // n_cells

    def rhs(u, theta, t):
        padded = np.concatenate(([0.0], u, [0.0]))
        flux = theta[segment] * (padded[1:] - padded[:-1])
        return (flux[1:] - flux[:-1]) * (n_cells * n_cells)

    x = np.arange(1, n_cells) / n_cells
    problem = sk.OdeProblem(rhs=rhs, u0=np.sin(np.pi * x) + 0.5 * np.sin(2 * np.pi * x),
                            tspan=(0.0, 0.1), theta=np.linspace(0.05, 0.15, p))
    loss = sk.SquaredErrorLoss([0.02, 0.05, 0.1], np.full((3, n_cells - 1), 0.1))
    return problem, loss


def _initial_state_problem():
    # u(0) = (theta_1, 0): the sensitivity starts at the u0_jacobian
    problem = sk.OdeProblem(
        rhs=lambda u, p, t: np.array([u[1], -(p[0] ** 2) * u[0] + 0.3 * np.sin(u[0])]),
        u0=[1.2, 0.0], tspan=(0.0, 3.0), theta=[0.7, 1.2],
        u0_jacobian=[[0.0, 1.0], [0.0, 0.0]],
    )
    return problem, sk.SquaredErrorLoss([1.0, 2.0, 3.0], np.full((3, 2), 0.5))


def _integrated_problem():
    ent = sk.make_harmonic(0.2)
    loss = sk.IntegratedLoss(
        h=lambda u, p: 0.5 * u[0] * u[0],
        dh_du=lambda u, p: np.array([u[0], 0.0]),
        dh_dtheta=lambda u, p: np.zeros(1),
    )
    return ent.problem, loss


ENGINE_CASES = [
    pytest.param(sk.make_harmonic(0.2).problem, sk.make_harmonic(0.2).loss, id="harmonic"),
    pytest.param(stripped(sk.make_harmonic(0.2).problem), sk.make_harmonic(0.2).loss,
                 id="harmonic-stripped"),
    pytest.param(*_diffusion_problem(), id="diffusion"),
    pytest.param(*_initial_state_problem(), id="u0-jacobian"),
    pytest.param(*_integrated_problem(), id="integrated-loss"),
]


@pytest.mark.parametrize("problem,loss", ENGINE_CASES)
def test_forward_ad_and_forward_sensitivity_share_one_engine(problem, loss):
    # both integrate the packed (u, S) float state; where the problem lacks
    # a Jacobian, each stage tangent is one multidual call of arity p (u
    # seeded by S, theta by the identity), never n + p
    arities = []

    def rhs(u, theta, t):
        duals = [x for x in (u, theta) if isinstance(x, MultiDual)]
        arities.append(duals[0].arity if duals else None)
        return problem.rhs(u, theta, t)

    recording = dataclasses.replace(problem, rhs=rhs)
    analytic = problem.rhs_jac_u is not None and problem.rhs_jac_theta is not None
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    results = {}
    for method in ("forward_ad", "forward_sensitivity"):
        arities.clear()
        results[method] = res = sk.gradient(recording, loss, method, cfg)
        s = res.stats
        assert s.rhs_evaluations == len(arities)
        if method == "forward_ad" or not analytic:
            assert set(arities) == {problem.p}
            assert s.jacobian_evaluations == 0
        else:
            assert set(arities) == {None}
    ad, fs = results["forward_ad"], results["forward_sensitivity"]
    work = [(r.stats.accepted_steps, r.stats.rejected_steps, r.stats.rhs_evaluations)
            for r in (ad, fs)]
    assert work[0] == work[1]
    assert np.max(np.abs(ad.gradient - fs.gradient)) <= 1e-13 * np.max(np.abs(fs.gradient))
    if not analytic:  # the same tangent calls, so the same trajectory
        assert ad.sensitivity_trajectory.tobytes() == fs.sensitivity_trajectory.tobytes()


@pytest.mark.parametrize("problem", ASSEMBLY_CASES)
def test_forward_tangent_part_is_the_jacobian_product(problem):
    # with both Jacobians supplied the tangent is their product, bitwise;
    # otherwise one arity-p multidual call gives it to rounding, and its
    # value coordinate is f with the bits of the full assembly's
    rng = np.random.default_rng(23)
    for _ in range(3):
        u = rng.normal(size=problem.n)
        theta = problem.theta + 0.1 * rng.normal(size=problem.p)
        t = float(rng.uniform(*problem.tspan))
        S = rng.normal(size=(problem.n, problem.p))
        J_u, J_t, f = jacobian_assembly(problem, u, theta, t, f=True)
        none, tangent, value = jacobian_assembly(problem, u, theta, t, f=True, u_theta=S)
        assert none is None
        assert value.tobytes() == f.tobytes()
        if problem.rhs_jac_u is not None and problem.rhs_jac_theta is not None:
            assert tangent.tobytes() == (J_u @ S + J_t).tobytes()
        else:
            assert np.allclose(tangent, J_u @ S + J_t, rtol=1e-13, atol=1e-13 * np.abs(J_u).max())
