import math
import re

import numpy as np
import pytest

import sensikit as sk
from sensikit.adjoint import AdjointConfig, continuous_adjoint
from sensikit.problems import CATALOG, make_problem


def test_harmonic_initial_condition_and_solution():
    ent = sk.make_harmonic(0.37)
    assert np.array_equal(ent.problem.u0, [0.0, 1.0])
    assert ent.analytic_solution(0.0)[0] == 0.0
    assert ent.analytic_solution(0.0)[1] == 1.0
    t = 3.3
    assert ent.analytic_solution(t)[0] == pytest.approx(math.sin(0.37 * t) / 0.37)


def test_harmonic_reference_values():
    ent = sk.make_harmonic(0.2)
    assert ent.analytic_solution(10.0)[0] == pytest.approx(4.546487, abs=1e-6)
    assert ent.analytic_gradient()[0] == pytest.approx(-43.539778, abs=1e-6)


def test_harmonic_zero_theta_singular():
    with pytest.raises(ValueError):
        sk.make_harmonic(0.0)


def test_predprey_constant_solution_and_loss():
    ent = sk.make_predprey(1.0)
    assert np.array_equal(ent.analytic_solution(3.7), [1.0, 1.0])
    assert len(ent.loss.times) == 101
    sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-12, reltol=1e-12,
                                                saveat=ent.loss.times))
    assert sk.loss_eval(sol, ent.loss) == pytest.approx(202.0, rel=1e-10)


def test_heat1d_analytic_references():
    ent = sk.make_heat1d(64, 0.1)
    n = ent.problem.n
    assert n == 63
    center = n // 2
    u = ent.analytic_solution(0.5)
    assert u[center] == pytest.approx(math.exp(-0.05 * math.pi ** 2), rel=1e-12)
    assert u[center] == pytest.approx(0.61049, abs=1e-5)
    g = ent.analytic_gradient()[0]
    assert g == pytest.approx(-math.pi ** 2 * 0.5 * math.exp(-0.05 * math.pi ** 2), rel=1e-12)
    assert g == pytest.approx(-3.012687, abs=1e-5)


def test_heat1d_validation_and_cfl():
    with pytest.raises(ValueError):
        sk.make_heat1d(2, 0.1)
    ent = sk.make_heat1d(16, 0.1)
    assert ent.cfl_dt == pytest.approx((1 / 16) ** 2 / 0.2)


def test_heat1d_zero_profile_stays_zero():
    ent = sk.make_heat1d(16, 0.1)
    prob = sk.OdeProblem(
        rhs=ent.problem.rhs,
        u0=np.zeros(ent.problem.n),
        tspan=ent.problem.tspan,
        theta=ent.problem.theta,
        rhs_jac_u=ent.problem.rhs_jac_u,
        rhs_jac_theta=ent.problem.rhs_jac_theta,
    )
    sol = sk.solve(prob, sk.SolverConfig(abstol=1e-10, reltol=1e-10))
    assert np.all(sol.states == 0.0)
    res = sk.forwardad_gradient(prob, ent.loss, sk.SolverConfig())
    assert np.array_equal(res.gradient, [0.0])


def test_heat1d_spatial_convergence_second_order():
    errs = {}
    for n in (16, 32):
        ent = sk.make_heat1d(n, 0.1)
        sol = sk.solve(ent.problem, sk.SolverConfig(abstol=1e-11, reltol=1e-11))
        center = ent.problem.n // 2
        errs[n] = abs(sol.final_state()[center] - ent.analytic_solution(0.5)[center])
    ratio = errs[16] / errs[32]
    assert 4 * 0.75 <= ratio <= 4 * 1.25


def test_heat1d_adjoint_gradient_consistency():
    ent = sk.make_heat1d(32, 0.1)
    cfg = sk.SolverConfig(abstol=1e-11, reltol=1e-11)
    res = continuous_adjoint(ent.problem, ent.loss, AdjointConfig(variant="interpolating", solver_config=cfg))
    # matches the analytic derivative up to spatial discretization error
    assert res.gradient[0] == pytest.approx(ent.analytic_gradient()[0], abs=1e-2)
    fn = sk.direct.solver_loss_fn(ent.problem, ent.loss, sk.SolverConfig(abstol=1e-12, reltol=1e-12))
    fd = sk.fd_gradient(fn, ent.problem.theta, 1e-5, scheme="centered")
    # and the same discretization's FD gradient much more closely
    assert abs(res.gradient[0] - fd[0]) <= 1e-6


def test_heat1d_stencil_generic_over_duals():
    ent = sk.make_heat1d(8, 0.1)
    theta_d = sk.dual.seed(ent.problem.theta)
    u0_d = sk.dual.seed_state(ent.problem.u0, None, 1)
    out = ent.problem.rhs(u0_d, theta_d, 0.0)
    vals = ent.problem.rhs(ent.problem.u0, ent.problem.theta, 0.0)
    assert np.allclose([x.value for x in out], vals)


def test_make_problem_dispatch():
    assert set(CATALOG) == {"harmonic", "predprey", "heat1d"}
    ent = make_problem("harmonic", theta=0.4)
    assert ent.params["theta"] == 0.4
    with pytest.raises(ValueError):
        make_problem("lorenz")




PROBLEM_INPUT_CHECKS = [
    pytest.param(lambda: sk.make_harmonic(0.0),
                 "theta = 0 is singular: the analytic solution degenerates", id="harmonic-theta-0"),
    pytest.param(lambda: sk.make_heat1d(2, 0.1), "need at least 3 cells for an interior stencil",
                 id="heat1d-cells"),
    pytest.param(lambda: sk.make_heat1d(16, 0.0), "diffusivity must be positive",
                 id="heat1d-theta-0"),
    *(pytest.param(lambda step=step: sk.make_predprey(0.95, step),
                   f"saveat_step must be positive and finite, got {step!r}",
                   id=f"predprey-saveat-step-{step}")
      for step in (0.0, -0.1, math.nan, math.inf, -math.inf)),
    *(pytest.param(lambda cells=cells: sk.make_heat1d(cells, 0.1),
                   f"n_cells must be an integer, got {cells!r}", id=f"heat1d-cells-{cells}")
      for cells in (3.5, 16.0, True)),
    *(pytest.param(lambda theta=theta: sk.make_heat1d(16, theta),
                   f"diffusivity must be finite, got {theta!r}", id=f"heat1d-theta-{theta}")
      for theta in (math.nan, math.inf)),
    *(pytest.param(lambda theta=theta: sk.make_harmonic(theta),
                   f"theta must be finite, got {theta!r}", id=f"harmonic-theta-{theta}")
      for theta in (math.nan, math.inf, -math.inf)),
    *(pytest.param(lambda a=a: sk.make_predprey(a), f"a must be finite, got {a!r}",
                   id=f"predprey-a-{a}")
      for a in (math.nan, math.inf)),
]


def test_heat1d_takes_a_numpy_integer_cell_count():
    ent = sk.make_heat1d(np.int64(16), 0.1)
    assert ent.problem.n == 15 and ent.params["n_cells"] == 16


@pytest.mark.parametrize("call,message", PROBLEM_INPUT_CHECKS)
def test_problem_input_checks_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
