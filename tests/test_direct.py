import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import sensikit as sk
from sensikit.direct import (
    METHODS,
    complexstep_gradient,
    default_epsilon,
    fd_gradient,
    forwardad_gradient,
    solver_loss_fn,
)
from sensikit.errors import NonConvergenceError, NumericalBlowupError, StepsizeUnderflowError

THETA = np.array([0.2])
T1 = 10.0
REF = (T1 / 0.2) * math.cos(0.2 * T1) - math.sin(0.2 * T1) / 0.2 ** 2


def analytic_loss(th):
    return np.sin(th[0] * T1) / th[0]


def analytic_loss_real(th):
    return float(np.real(analytic_loss(th)))


def test_fd_exact_for_quadratics():
    for eps in (1e-2, 1e-5, 1e-8):
        g = fd_gradient(lambda th: th[0] ** 2, np.array([3.0]), eps, scheme="centered")
        assert g[0] == pytest.approx(6.0, abs=1e-5)


def test_fd_harmonic_analytic_map():
    g = fd_gradient(analytic_loss_real, THETA, 1e-6, scheme="centered")
    assert g[0] == pytest.approx(REF, abs=1e-4)
    assert g[0] == pytest.approx(-43.5398, abs=1e-3)


def test_fd_cancellation_at_tiny_step():
    # cancellation dominates far below the sweet spot: orders of magnitude
    # worse than the eps = 1e-6 error
    tiny = fd_gradient(analytic_loss_real, THETA, 1e-15, scheme="centered")
    good = fd_gradient(analytic_loss_real, THETA, 1e-6, scheme="centered")
    err_tiny = abs(tiny[0] - REF) / abs(REF)
    err_good = abs(good[0] - REF) / abs(REF)
    assert err_tiny >= 1e4 * err_good
    assert err_tiny > 1e-5


def test_fd_forward_scheme_cost():
    calls = []

    def fn(th):
        calls.append(th.copy())
        return float(th[0] ** 2)

    fd_gradient(fn, np.array([1.0, 2.0]), 1e-6, scheme="forward")
    assert len(calls) == 3  # base + one per component
    calls.clear()
    fd_gradient(fn, np.array([1.0, 2.0]), 1e-6, scheme="centered")
    assert len(calls) == 4  # 2p


def test_fd_propagates_nonfinite_with_component():
    def fn(th):
        return math.inf if th[1] > 2.0 else 1.0

    with pytest.raises(NumericalBlowupError, match="component 1"):
        fd_gradient(fn, np.array([1.0, 2.0]), 1e-3, scheme="centered")


@pytest.mark.parametrize("loss", [lambda th: float("nan") + th[0],
                                  lambda th: float("inf") + 3 * th[0]], ids=["nan", "inf"])
@pytest.mark.parametrize("method", ["complex_step", "centered_fd"])
def test_a_non_finite_loss_raises_whatever_its_imaginary_part(method, loss):
    # the perturbed loss is NaN or infinite, yet Im(L) / eps alone reads 1
    # and 3: complex step checks both parts, as finite differences do
    with pytest.raises(NumericalBlowupError,
                       match="^non-finite loss while perturbing component 0$"):
        if method == "complex_step":
            complexstep_gradient(loss, np.array([1.0]), 1e-12)
        else:
            fd_gradient(loss, np.array([1.0]), 1e-6)


DIRECT_INPUT_CHECKS = [
    pytest.param(lambda: fd_gradient(lambda th: 0.0, [1.0], 1e-6, scheme="backward"),
                 ValueError, "unknown finite-difference scheme 'backward'", id="fd-scheme"),
    pytest.param(lambda: fd_gradient(lambda th: 0.0, [1.0], 0.0), ValueError,
                 "eps must be positive", id="fd-eps-0"),
    pytest.param(lambda: fd_gradient(lambda th: math.nan, [1.0], 1e-6, scheme="forward"),
                 NumericalBlowupError, "loss is non-finite at the base point", id="fd-base-nan"),
    pytest.param(lambda: complexstep_gradient(lambda th: th[0], [1.0], -1e-12), ValueError,
                 "eps must be positive", id="complex-step-negative-eps"),
]


@pytest.mark.parametrize("call,error,message", DIRECT_INPUT_CHECKS)
def test_direct_input_checks_raise_their_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_complexstep_quadratic():
    g = complexstep_gradient(lambda th: th[0] ** 2, np.array([3.0]), 1e-12)
    assert g[0] == pytest.approx(6.0, rel=1e-12)


def test_complexstep_harmonic_tiny_step():
    g = complexstep_gradient(analytic_loss, THETA, 1e-12)
    assert g[0] == pytest.approx(REF, rel=1e-6)
    assert g[0] == pytest.approx(-43.539778, abs=1e-5)


def test_complexstep_zeroes_on_conjugate_square():
    # |z|^2 written as z * conj(z) is not analytic: derivative comes out 0
    def loss(th):
        z = th[0]
        return z * np.conj(z)

    g = complexstep_gradient(loss, np.array([1.7]), 1e-10)
    assert g[0] == pytest.approx(0.0, abs=1e-12)


def test_absolute_guard_raises_on_complex():
    def loss(th):
        return sk.dual.absolute(th[0]) ** 2

    with pytest.raises(sk.errors.AnalyticityError):
        complexstep_gradient(loss, np.array([1.7]), 1e-10)


def _float_state_rhs(u, p, t):
    u = np.asarray(u, dtype=float)  # float() of every entry
    return -p[0] * u


def _math_sin_rhs(u, p, t):
    return np.array([math.sin(u[0]) * p[0], -u[1]])


@pytest.mark.parametrize("method", ["forward_ad", "forward_sensitivity", "continuous_backsolve",
                                    "continuous_interpolating", "continuous_quadrature",
                                    "discrete_adjoint"])
@pytest.mark.parametrize("rhs", [_float_state_rhs, _math_sin_rhs], ids=["float-state", "math-sin"])
def test_float_of_a_multidual_raises_instead_of_dropping_its_tangents(method, rhs):
    # float() of a multidual used to return its value: on the first
    # right-hand side these methods returned -2.1574916 where the exact
    # -3 exp(-0.7) is -1.4897559, and on the second math.sin lost the
    # tangent of u, all without an error.  numpy wraps the first one's
    # error in "setting an array element with a sequence"; the error
    # itself is raised
    problem = sk.OdeProblem(rhs=rhs, u0=[1.0, 2.0], tspan=(0.0, 1.0), theta=[0.7])
    loss = sk.LinearStateLoss([1.0], [[1.0, 1.0]])
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    if method == "discrete_adjoint":
        cfg = sk.SolverConfig(method="rk4", dt=0.1)
    with pytest.raises(sk.errors.AnalyticityError,
                       match=r"float\(\) of a multidual drops its tangents"):
        sk.gradient(problem, loss, method, cfg)


def test_float_of_a_multidual_names_the_alternatives():
    with pytest.raises(sk.errors.AnalyticityError, match="numpy's functions.*centered_fd"):
        float(sk.dual.MultiDual(0.5, [1.0]))
    problem = sk.OdeProblem(rhs=_float_state_rhs, u0=[1.0, 2.0], tspan=(0.0, 1.0), theta=[0.7])
    loss = sk.LinearStateLoss([1.0], [[1.0, 1.0]])
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    fd = sk.gradient(problem, loss, "centered_fd", cfg).gradient[0]
    assert fd == pytest.approx(-3.0 * math.exp(-0.7), rel=1e-8)


@pytest.mark.parametrize("case", ["float-state", "math-sin", "math-sin-loss"])
def test_complex_step_refuses_what_drops_the_imaginary_part(case):
    # float() of a numpy complex scalar only warns, and drops the imaginary
    # part, so with warnings not escalated complex step returned -2.1574916
    # on the first right-hand side, where the exact -3 exp(-0.7) is
    # -1.4897559, and 0.9515277 on the second against centered FD's
    # 0.9954650, with no error.  An integrated loss's h is evaluated on the
    # same complex states
    rhs = _math_sin_rhs if case == "math-sin" else _float_state_rhs
    problem = sk.OdeProblem(rhs=rhs, u0=[1.0, 2.0], tspan=(0.0, 1.0), theta=[0.7])
    loss = sk.LinearStateLoss([1.0], [[1.0, 1.0]])
    if case == "math-sin-loss":
        problem = dataclasses.replace(problem, rhs=lambda u, p, t: -p[0] * u)
        loss = sk.IntegratedLoss(h=lambda u, th: math.sin(u[0]),
                                 dh_du=lambda u, th: np.array([math.cos(u[0]), 0.0]),
                                 dh_dtheta=lambda u, th: np.zeros(1))
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(sk.errors.AnalyticityError, match="numpy's functions.*centered_fd"):
            sk.gradient(problem, loss, "complex_step", cfg)
        assert np.isfinite(sk.gradient(problem, loss, "centered_fd", cfg).gradient).all()


def test_default_epsilons():
    assert np.allclose(default_epsilon("centered_fd", [0.2]), 1e-6)
    assert np.allclose(default_epsilon("centered_fd", [50.0]), 5e-5)
    assert np.allclose(default_epsilon("complex_step", [0.2]), 1e-12)


def test_forwardad_zero_gradient_when_theta_unused():
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: np.array([-u[0]]),
        u0=[1.0],
        tspan=(0.0, 1.0),
        theta=[0.7],
    )
    loss = sk.LinearStateLoss([1.0], [[1.0]])
    res = forwardad_gradient(prob, loss, sk.SolverConfig())
    assert np.array_equal(res.gradient, [0.0])


def test_forwardad_gradient_owns_its_data():
    # the loss dual can share its tangent array with the duals it was summed
    # from, so the returned gradient must be a copy
    entry = sk.make_harmonic(0.2)
    summands = []

    class RecordingLoss(sk.LinearStateLoss):
        def value_at(self, u, i):
            v = super().value_at(u, i)
            summands.append(v)
            return v

    loss = RecordingLoss(entry.loss.times, entry.loss.coeffs)
    res = forwardad_gradient(entry.problem, loss, sk.SolverConfig(abstol=1e-8, reltol=1e-8))
    assert res.gradient.flags.owndata
    assert summands and not any(np.shares_memory(res.gradient, d.tangents) for d in summands)
    kept = summands[-1].tangents.copy()
    res.gradient[:] = 0.0
    assert np.array_equal(summands[-1].tangents, kept)


def test_forwardad_predprey_norm_modes():
    ent = sk.make_predprey(1.0)
    base = dict(abstol=1e-12, reltol=1e-12, saveat=ent.loss.times)
    good = forwardad_gradient(
        ent.problem, ent.loss, sk.SolverConfig(norm_mode=sk.JOINT_PRIMAL_DUAL, **base)
    )
    assert good.gradient[0] == pytest.approx(212.71042521681443, rel=1e-6)
    bad = forwardad_gradient(
        ent.problem, ent.loss, sk.SolverConfig(norm_mode=sk.PRIMAL_ONLY, **base)
    )
    assert abs(bad.gradient[0] - 212.71042521681443) > 0.5 * 212.71
    assert "warning" in bad.metadata


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-12])
def test_forward_ad_primal_only_on_predprey_is_pinned_bitwise(tol):
    # the flagged reproduction of the primal-only failure: the primal state
    # of predprey at a = 1 is constant, so the controller sees no error and
    # takes the same four steps at every tolerance, and the gradient is the
    # same wrong number
    ent = sk.make_predprey(1.0)
    res = sk.gradient(ent.problem, ent.loss, "forward_ad_primal_only",
                      sk.SolverConfig(abstol=tol, reltol=tol))
    s = res.stats
    assert res.gradient[0] == 102984.85480239875
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (4, 0, 25)
    assert "warning" in res.metadata
    # forward sensitivity keeps the joint norm whatever the mode says
    cfg = sk.SolverConfig(abstol=tol, reltol=tol)
    joint = sk.gradient(ent.problem, ent.loss, "forward_sensitivity", cfg)
    named = sk.gradient(ent.problem, ent.loss, "forward_sensitivity",
                        dataclasses.replace(cfg, norm_mode=sk.PRIMAL_ONLY))
    assert named.gradient.tobytes() == joint.gradient.tobytes()
    assert named.gradient[0] == pytest.approx(212.71042521681443, rel=1e-3)


@pytest.mark.parametrize("method", METHODS)
def test_gradient_dispatcher(method):
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    if method == "discrete_adjoint":
        cfg = sk.SolverConfig(method="rk4", dt=1e-2)
    res = sk.gradient(ent.problem, ent.loss, method, cfg)
    assert res.gradient[0] == pytest.approx(REF, rel=1e-4)
    assert res.method == method
    with pytest.raises(ValueError, match="sideways"):
        sk.gradient(ent.problem, ent.loss, "sideways", cfg)


def _work_and_bits(res):
    s = res.stats
    return (res.gradient.tobytes(), res.peak_stored_states,
            (s.accepted_steps, s.rejected_steps, s.rhs_evaluations, s.jacobian_evaluations),
            {k: np.asarray(v).tobytes() for k, v in res.metadata.items()})


@pytest.mark.parametrize("method", METHODS)
def test_a_valid_setting_a_method_does_not_read_changes_nothing(method):
    # checkpoints bound the adjoints' storage and epsilon is FD's and
    # complex step's perturbation; a method that reads neither ignores a
    # valid value of it, so the command line can pass both to every method
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    if method == "discrete_adjoint":
        cfg = sk.SolverConfig(method="rk4", dt=0.01)
    unread = {}
    if not (method == "discrete_adjoint" or method.startswith("continuous_")):
        unread["checkpoints"] = 4
    if method not in ("forward_fd", "centered_fd", "complex_step"):
        unread["epsilon"] = 1e-3
    want = sk.gradient(ent.problem, ent.loss, method, cfg)
    got = sk.gradient(ent.problem, ent.loss, method, cfg, **unread)
    assert _work_and_bits(got) == _work_and_bits(want)


@pytest.mark.parametrize("method", ["forward_ad", "forward_ad_primal_only", "forward_sensitivity"])
def test_forward_methods_count_the_nodes_their_solve_holds(method):
    # peak_stored_states counts the solve's mesh, one node per accepted step
    # plus t0, as the adjoints count theirs, not the loss's observations:
    # primal-only forward AD reads predprey's 101 observation times off 51
    # nodes
    ent = sk.make_predprey(0.95)
    res = sk.gradient(ent.problem, ent.loss, method, sk.SolverConfig(abstol=1e-8, reltol=1e-8))
    assert res.peak_stored_states == res.stats.accepted_steps + 1
    if method == "forward_ad_primal_only":
        assert res.peak_stored_states == 51


@pytest.mark.parametrize("method", METHODS)
def test_zero_parameter_request_is_refused_before_any_work(method):
    calls = []

    def rhs(u, theta, t):
        calls.append(t)
        return -u

    problem = sk.OdeProblem(rhs=rhs, u0=[1.0], tspan=(0.0, 1.0), theta=np.zeros(0))
    loss = sk.LinearStateLoss([1.0], [[1.0]])
    cfg = sk.SolverConfig(method="rk4", dt=0.1)
    with pytest.raises(ValueError, match="^the problem has no parameters: "
                                         "there is no gradient to compute$"):
        sk.gradient(problem, loss, method, cfg)
    assert calls == []


@pytest.mark.parametrize("method", ["continuous_interpolating", "continuous_quadrature"])
def test_dense_adjoints_take_one_reverse_step_per_fixed_grid_interval(method):
    # 200 forward rk4 steps and 200 reverse ones, one per interval (the one
    # observation sits on t1); the RHS calls are the forward solve's, 4 per
    # step plus the initial one, as the costate field uses the analytic
    # Jacobians
    ent = sk.make_harmonic(0.2)
    res = sk.gradient(ent.problem, ent.loss, method, sk.SolverConfig(method="rk4", dt=0.05))
    assert (res.stats.accepted_steps, res.stats.rhs_evaluations) == (400, 801)


def test_fixed_step_reverse_solves_skip_the_unread_end_derivative():
    # a solve that keeps no nodes skips the non-FSAL derivative after its
    # last step, and the costate field assembles once per distinct time:
    # interpolating's one-step rk4 costate intervals pay 2 Jacobian pairs
    # each after the first's 3, not 4 or 5, as rk4's middle stages share the
    # half-step time and each interval starts where the one to its right
    # stopped.  Backsolve's state-costate intervals (one RHS and one
    # Jacobian pair per evaluation) pay 4 evaluations per step and nothing
    # per interval; the forward pass with checkpoints keeps no nodes either
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(method="rk4", dt=0.05)
    work = {}
    for method, checkpoints in (("continuous_interpolating", None),
                                ("continuous_backsolve", 4)):
        s = sk.gradient(ent.problem, ent.loss, method, cfg, checkpoints=checkpoints).stats
        work[method] = (s.rhs_evaluations, s.jacobian_evaluations)
    assert work == {"continuous_interpolating": (801, 802), "continuous_backsolve": (1600, 1600)}


@pytest.mark.parametrize("times", [(5.0, 10.0 + 5e-9), (-5e-9, 5.0)])
def test_every_method_places_observations_by_one_span_rule(times):
    # every method places an observation within 1e-9 x span outside
    # [t0, t1] on the end node, and every method rejects one further out
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    rk4 = sk.SolverConfig(method="rk4", dt=0.01)
    targets = [[1.1, 0.9], [0.8, 1.2]]
    loss = sk.SquaredErrorLoss(times, targets)
    ref = sk.gradient(ent.problem, loss, "forward_sensitivity", cfg).gradient[0]
    late = sk.SquaredErrorLoss([5.0, 10.0 + 2e-8], targets)
    for method in METHODS:
        c = rk4 if method == "discrete_adjoint" else cfg
        g = sk.gradient(ent.problem, loss, method, c).gradient[0]
        assert g == pytest.approx(ref, rel=1e-4), method
        with pytest.raises(ValueError):
            sk.gradient(ent.problem, late, method, c)


@pytest.mark.parametrize("case", ["theta_shape", "late_observation", "unknown_loss",
                                  "short_targets", "short_weight_rows", "short_coefficients",
                                  "long_coefficients", "complex_theta", "complex_theta_zero_imag",
                                  "zero_checkpoints", "fractional_checkpoints", "long_epsilon",
                                  "negative_epsilon", "nan_epsilon", "saveat_outside_span"])
def test_every_method_rejects_a_bad_request_alike_before_any_work(case):
    # one check before any solve: the same exception and text from all ten
    # methods, after no RHS call.  A target, weight row or coefficient row
    # of the wrong length used to broadcast into a wrong gradient (one
    # entry) or fail in numpy after a full solve (three), and a complex
    # theta lost its imaginary part with only a ComplexWarning.  A bad
    # checkpoint count was refused by the adjoints only and a bad epsilon by
    # FD and complex step only (a long one in numpy); the others ran.  A
    # saveat grid past the span was refused by the solves only: the
    # adjoints, which read no saveat, returned a gradient
    ent = sk.make_predprey(0.95)
    calls = []
    rhs = ent.problem.rhs

    def counting_rhs(u, theta, t):
        calls.append(t)
        return rhs(u, theta, t)

    problem = dataclasses.replace(ent.problem, rhs=counting_rhs)
    grid = {"saveat": [0.0, 20.0]} if case == "saveat_outside_span" else {}
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8, **grid)
    rk4 = sk.SolverConfig(method="rk4", dt=0.01, **grid)
    loss, theta = {
        "theta_shape": (ent.loss, np.array([0.95, 3.0])),
        "late_observation": (
            sk.SquaredErrorLoss([5.0, 10.0 + 2e-8], [[1.1, 0.9], [0.8, 1.2]]), None
        ),
        "unknown_loss": (object(), None),
        "short_targets": (sk.SquaredErrorLoss([5.0], [[0.5]]), None),
        "short_weight_rows": (sk.SquaredErrorLoss([5.0], [[0.5, 0.5]], weights=[[1.0]]), None),
        "short_coefficients": (sk.LinearStateLoss([5.0], [[1.0]]), None),
        "long_coefficients": (sk.LinearStateLoss([5.0], [[1.0, 1.0, 1.0]]), None),
        "complex_theta": (ent.loss, np.array([0.95 + 1e-3j])),
        "complex_theta_zero_imag": (ent.loss, np.array([0.95 + 0j])),
    }.get(case, (ent.loss, None))
    settings = {
        "zero_checkpoints": {"checkpoints": 0},
        "fractional_checkpoints": {"checkpoints": 2.5},
        "long_epsilon": {"epsilon": [1e-6, 1e-6]},
        "negative_epsilon": {"epsilon": -1.0},
        "nan_epsilon": {"epsilon": math.nan},
    }.get(case, {})
    raised = set()
    for method in METHODS:
        c = rk4 if method == "discrete_adjoint" else cfg
        with pytest.raises((TypeError, ValueError)) as err:
            sk.gradient(problem, loss, method, c, theta=theta, **settings)
        raised.add((type(err.value), str(err.value)))
        assert calls == [], method
    assert len(raised) == 1, raised


@pytest.mark.parametrize("method,dt,max_steps,error,message", [
    ("euler", 1e-6, 100, NonConvergenceError,
     "exceeded 100 step attempts at t=9.999999999999982e-05"),
    ("rk4", 1e-300, 1_000_000, StepsizeUnderflowError, "stepsize underflow: dt=1e-300 at t=0.0"),
])
def test_every_method_refuses_a_fixed_grid_over_budget_or_underflowing_before_any_rhs_call(
        method, dt, max_steps, error, message):
    # every fixed-step run builds its grid before its first derivative read,
    # so all ten methods refuse alike after no RHS call, with the error a
    # step would raise, as the discrete adjoint's off-grid check does
    ent = sk.make_harmonic(0.2)
    calls = []
    rhs = ent.problem.rhs

    def counting_rhs(u, theta, t):
        calls.append(t)
        return rhs(u, theta, t)

    problem = dataclasses.replace(ent.problem, rhs=counting_rhs)
    cfg = sk.SolverConfig(method=method, dt=dt, max_steps=max_steps)
    for name in METHODS:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sk.gradient(problem, ent.loss, name, cfg)
        assert calls == [], name


def test_the_functions_behind_gradient_refuse_a_saveat_grid_past_the_span():
    # the span rule sits in core.check_request, so each method's own entry
    # point refuses such a grid too, though only the forward methods read it
    ent = sk.make_predprey(0.95)
    cfg = sk.SolverConfig(method="rk4", dt=0.01, saveat=[0.0, 20.0])
    adjoint = sk.AdjointConfig(variant="interpolating", solver_config=cfg)
    for run in (lambda: sk.forward_sensitivity(ent.problem, ent.loss, cfg),
                lambda: sk.forwardad_gradient(ent.problem, ent.loss, cfg),
                lambda: sk.continuous_adjoint(ent.problem, ent.loss, adjoint),
                lambda: sk.discrete_adjoint(ent.problem, ent.loss, adjoint),
                lambda: solver_loss_fn(ent.problem, ent.loss, cfg)):
        with pytest.raises(ValueError, match="^saveat grid extends outside the time span$"):
            run()


def test_every_method_but_the_discrete_adjoint_reads_between_fixed_steps():
    # every kept mesh is read by Hermite dense output, whatever the tableau,
    # so an observation between rk4 steps gets an answer from each method
    # that reads the trajectory; the discrete adjoint differentiates the step
    # map and needs its observations on the grid
    ent = sk.make_predprey(0.95)
    loss = sk.SquaredErrorLoss([5.005, 10.0], np.ones((2, 2)))
    tight = sk.SolverConfig(abstol=1e-12, reltol=1e-12)
    ref = sk.gradient(ent.problem, loss, "forward_sensitivity", tight).gradient[0]
    assert ref == pytest.approx(-0.59871642, abs=1e-8)
    rk4 = sk.SolverConfig(method="rk4", dt=0.01)
    for method in METHODS:
        if method == "discrete_adjoint":
            with pytest.raises(ValueError, match="fixed grid"):
                sk.gradient(ent.problem, loss, method, rk4)
            continue
        g = sk.gradient(ent.problem, loss, method, rk4).gradient[0]
        assert g == pytest.approx(ref, rel=1e-4 if method == "forward_fd" else 1e-8), method


@pytest.mark.parametrize("case", ["decay", "harmonic"])
def test_fd_and_complex_step_refuse_an_initial_state_that_depends_on_theta(case):
    # they perturb theta only, so they would miss the du0/dtheta term: on
    # the decay problem they returned 0.0 for exp(-1), with no warning.  They
    # refuse before any solve; forward AD seeds du0/dtheta and answers
    if case == "decay":  # theta is u0 of du/dt = -u
        problem = sk.OdeProblem(rhs=lambda u, p, t: -u, u0=[1.0], tspan=(0.0, 1.0),
                                theta=[1.0], u0_jacobian=[[1.0]])
        loss, ref = sk.LinearStateLoss([1.0], [[1.0]]), math.exp(-1.0)
    else:  # u1(0) moves with theta: d u1(10) / d u1(0) = cos(theta t1)
        ent = sk.make_harmonic(0.2)
        problem = dataclasses.replace(ent.problem, u0_jacobian=[[1.0], [0.0]])
        loss, ref = ent.loss, REF + math.cos(0.2 * T1)
    calls = []

    def counting_rhs(u, theta, t):
        calls.append(t)
        return problem.rhs(u, theta, t)

    counted = dataclasses.replace(problem, rhs=counting_rhs)
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    refusal = (r"^unsupported configuration: .*\(nonzero u0_jacobian\); "
               r"use forward_ad, forward_sensitivity or an adjoint method$")
    for method in ("forward_fd", "centered_fd", "complex_step"):
        with pytest.raises(ValueError, match=refusal):
            sk.gradient(counted, loss, method, cfg)
    with pytest.raises(ValueError, match=refusal):
        solver_loss_fn(counted, loss, cfg)
    assert calls == []
    assert sk.gradient(problem, loss, "forward_ad", cfg).gradient[0] == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("method", ["forward_fd", "centered_fd", "complex_step"])
def test_fd_and_complex_step_answer_an_all_zero_u0_jacobian(method):
    # only a nonzero du0/dtheta is refused: an all-zero map has no term to
    # miss, and the answer is the one without a map, bitwise
    ent = sk.make_harmonic(0.2)
    problem = dataclasses.replace(ent.problem, u0_jacobian=[[0.0], [0.0]])
    cfg = sk.SolverConfig(abstol=1e-10, reltol=1e-10)
    g = sk.gradient(problem, ent.loss, method, cfg).gradient
    assert g.tobytes() == sk.gradient(ent.problem, ent.loss, method, cfg).gradient.tobytes()
    assert g[0] == pytest.approx(REF, rel=1e-4 if method == "forward_fd" else 1e-8)


def test_v_shape_of_centered_fd_error():
    eps_grid = 10.0 ** np.linspace(-15, -1, 29)
    errs = np.array(
        [
            abs(fd_gradient(analytic_loss_real, THETA, e, scheme="centered")[0] - REF)
            / abs(REF)
            for e in eps_grid
        ]
    )
    i = int(np.argmin(errs))
    assert 1e-8 <= eps_grid[i] <= 1e-4
    assert errs[0] >= 100 * errs[i]
    assert errs[-1] >= 100 * errs[i]


def test_complexstep_error_monotone_in_epsilon():
    errs = []
    for eps in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        g = complexstep_gradient(analytic_loss, THETA, eps)[0]
        errs.append(abs(g - REF) / abs(REF))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-15


def test_forwardad_tolerance_convergence():
    ent = sk.make_harmonic(0.2)
    grads = {}
    for tau in (1e-6, 1e-9, 1e-12):
        cfg = sk.SolverConfig(abstol=tau, reltol=tau)
        grads[tau] = forwardad_gradient(ent.problem, ent.loss, cfg).gradient[0]
    assert abs(grads[1e-9] - grads[1e-6]) / abs(grads[1e-9]) <= 100 * 1e-6
    assert abs(grads[1e-12] - grads[1e-9]) / abs(grads[1e-12]) <= 100 * 1e-9


def test_forwardad_matches_forward_sensitivity_on_fixed_grid():
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(method="rk4", dt=0.02)
    ad = forwardad_gradient(ent.problem, ent.loss, cfg)
    fs = sk.forward_sensitivity(ent.problem, ent.loss, cfg)
    assert ad.gradient[0] == pytest.approx(fs.gradient[0], rel=1e-12)


def test_solver_loss_fn_counts_evaluations():
    ent = sk.make_harmonic(0.2)
    fn = solver_loss_fn(ent.problem, ent.loss, sk.SolverConfig())
    fn(THETA)
    first = fn.stats.rhs_evaluations
    assert first > 0
    fn(THETA)
    assert fn.stats.rhs_evaluations == 2 * first


# int_0^T u1^2 / 2 dt on harmonic, u1 = sin(theta t) / theta, differentiated
# in theta in closed form (T = 10, theta = 0.2)
INTEGRATED_REF = (-T1 / (2 * 0.2 ** 3) - T1 * math.cos(2 * 0.2 * T1) / (4 * 0.2 ** 3)
                  + 3 * math.sin(2 * 0.2 * T1) / (8 * 0.2 ** 4))


def half_u1_squared():
    return sk.IntegratedLoss(
        h=lambda u, th: 0.5 * u[0] * u[0],
        dh_du=lambda u, th: np.array([u[0], 0.0]),
        dh_dtheta=lambda u, th: np.zeros(1),
    )


@pytest.mark.parametrize("method", METHODS)
def test_every_method_differentiates_an_integrated_loss(method):
    # the integral is a state of the solve, under the same error control as
    # the trajectory
    assert INTEGRATED_REF == pytest.approx(-598.1119533179168, rel=1e-14)
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    if method == "discrete_adjoint":
        cfg = sk.SolverConfig(method="rk4", dt=0.01)
    res = sk.gradient(ent.problem, half_u1_squared(), method, cfg)
    rel = 1e-5 if method == "forward_fd" else 1e-6
    assert res.gradient[0] == pytest.approx(INTEGRATED_REF, rel=rel)


@pytest.mark.parametrize("analytic", [True, False])
def test_discrete_adjoint_of_an_integrated_loss_is_exact_on_its_grid(analytic):
    # the discrete adjoint differentiates the integral as its rk4 grid
    # computes it, which forward AD on the same grid does too
    ent = sk.make_predprey(0.95)
    problem = ent.problem
    if not analytic:
        problem = dataclasses.replace(problem, rhs_jac_u=None, rhs_jac_theta=None)
    loss = sk.IntegratedLoss(
        h=lambda u, th: u[0] * u[1],
        dh_du=lambda u, th: np.array([u[1], u[0]]),
        dh_dtheta=lambda u, th: np.zeros(1),
    )
    cfg = sk.SolverConfig(method="rk4", dt=0.01)
    discrete = sk.gradient(problem, loss, "discrete_adjoint", cfg).gradient[0]
    ad = sk.gradient(problem, loss, "forward_ad", cfg).gradient[0]
    assert discrete == pytest.approx(ad, rel=1e-12)
    assert discrete == pytest.approx(18.1695222432, rel=1e-9)
