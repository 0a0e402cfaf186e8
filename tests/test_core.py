import math
import re

import numpy as np
import pytest

import sensikit as sk
from sensikit.core import (
    IntegratedLoss,
    LinearStateLoss,
    SquaredErrorLoss,
    loss_eval,
    running_integral,
)
from sensikit.direct import METHODS


@pytest.fixture
def harmonic_solution():
    ent = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(method="dopri5", abstol=1e-12, reltol=1e-12)
    return ent, sk.solve(ent.problem, cfg)


def test_problem_validation():
    with pytest.raises(ValueError):
        sk.OdeProblem(rhs=lambda u, p, t: u, u0=[1.0], tspan=(1.0, 0.0), theta=[0.1])
    with pytest.raises(ValueError):
        sk.OdeProblem(
            rhs=lambda u, p, t: u,
            u0=[1.0, 2.0],
            tspan=(0.0, 1.0),
            theta=[0.1],
            u0_jacobian=np.zeros((3, 1)),
        )


def test_loss_zero_at_exact_fit(harmonic_solution):
    ent, sol = harmonic_solution
    times = [2.0, 5.0]
    targets = [sk.dense_eval(sol, t) for t in times]
    loss = SquaredErrorLoss(times, targets, weights=[3.0, 7.0])
    assert loss_eval(sol, loss) == pytest.approx(0.0, abs=1e-24)


def test_loss_formula_single_observation():
    # w=2 and residual (1,1): 2*(1+1)/2 = 2
    loss = SquaredErrorLoss([1.0], [[0.0, 0.0]], weights=[2.0])
    assert loss.value_at(np.array([1.0, 1.0]), 0) == pytest.approx(2.0)


def test_loss_component_weighted_final_value(harmonic_solution):
    # 1/2 u1(10)^2 via a component-selecting weight vector
    ent, sol = harmonic_solution
    loss = SquaredErrorLoss([10.0], [[0.0, 0.0]], weights=[[1.0, 0.0]])
    expect = 0.5 * (math.sin(2.0) / 0.2) ** 2
    assert loss_eval(sol, loss) == pytest.approx(expect, rel=1e-9)
    assert expect == pytest.approx(10.335, abs=5e-4)


def test_loss_reorder_invariance(harmonic_solution):
    ent, sol = harmonic_solution
    rng = np.random.default_rng(3)
    times = np.array([1.0, 3.0, 7.5])
    targets = rng.normal(size=(3, 2))
    weights = np.array([0.5, 2.0, 1.0])
    a = SquaredErrorLoss(times, targets, weights)
    perm = [2, 0, 1]
    b = SquaredErrorLoss(times[perm], targets[perm], weights[perm])
    assert loss_eval(sol, a) == loss_eval(sol, b)


def test_loss_grad_zero_at_target():
    loss = SquaredErrorLoss([1.0], [[2.0, -1.0]], weights=[5.0])
    assert np.allclose(loss.grad_u_at(np.array([2.0, -1.0]), 0), 0.0)


def test_loss_grad_formula():
    loss = SquaredErrorLoss([1.0], [[0.0, 0.0]], weights=[3.0])
    g = loss.grad_u_at(np.array([1.0, -2.0]), 0)
    assert np.allclose(g, [3.0, -6.0])


def test_loss_out_of_span_rejected(harmonic_solution):
    ent, sol = harmonic_solution
    loss = SquaredErrorLoss([11.0], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        loss_eval(sol, loss)


@pytest.mark.parametrize("loss_type", [SquaredErrorLoss, LinearStateLoss])
def test_a_pointwise_loss_of_no_observation_is_refused_when_built(loss_type):
    # it has no gradient to compute: the forward methods failed after
    # solving, on a reduction of an empty array, and the adjoints solved
    # and returned 0
    with pytest.raises(ValueError, match="at least one observation time"):
        loss_type([], np.empty((0, 2)))


@pytest.mark.parametrize("loss_type", [SquaredErrorLoss, LinearStateLoss])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_observation_time_is_refused_when_built(loss_type, bad):
    # NaN compares false with every bound, so the span and distinctness
    # checks let it through: on harmonic, interpolating returned [0.], the
    # forward methods [nan], and the other methods raised foreign errors
    with pytest.raises(ValueError, match="^observation times must be finite$"):
        loss_type([5.0, bad], np.ones((2, 2)))


def _rhs_never_called(u, theta, t):
    raise AssertionError("a refused setting reached the right-hand side")


def _gradient_with_epsilon(method, eps, theta=None):
    problem = sk.OdeProblem(_rhs_never_called, [1.0], (0.0, 1.0), [1.0])
    loss = LinearStateLoss([1.0], [[1.0]])
    return sk.gradient(problem, loss, method, sk.SolverConfig(), theta, epsilon=eps)


# each let NaN or infinity through a check written ``x <= 0`` (NaN compares
# false) or no check at all: NaN saveat rows, a [0, nan] mesh, a tolerance
# error blamed on stepsize underflow, no step budget, a one-node solve of an
# infinite span, a NaN gradient, or a "non-finite stage value"
NON_FINITE_SETTINGS = [
    pytest.param(lambda: sk.SolverConfig(saveat=[1.0, math.nan]), "saveat times must be finite",
                 id="saveat-nan-row"),
    pytest.param(lambda: sk.SolverConfig(saveat=[math.nan]), "saveat times must be finite",
                 id="saveat-nan"),
    pytest.param(lambda: sk.SolverConfig(method="rk4", dt=math.nan), "dt must be positive",
                 id="dt-nan"),
    pytest.param(lambda: sk.SolverConfig(abstol=math.nan),
                 "tolerances must be finite, got abstol=nan, reltol=1e-06", id="abstol-nan"),
    pytest.param(lambda: sk.SolverConfig(reltol=math.inf),
                 "tolerances must be finite, got abstol=1e-06, reltol=inf", id="reltol-inf"),
    pytest.param(lambda: sk.SolverConfig(max_steps=math.nan), "max_steps must be positive",
                 id="max-steps-nan"),
    pytest.param(lambda: sk.OdeProblem(_rhs_never_called, [1.0], (0.0, math.inf), [1.0]),
                 "tspan must be finite, got (0.0, inf)", id="tspan-infinite-end"),
    pytest.param(lambda: sk.OdeProblem(_rhs_never_called, [1.0], (-math.inf, 1.0), [1.0]),
                 "tspan must be finite, got (-inf, 1.0)", id="tspan-infinite-start"),
    pytest.param(lambda: sk.OdeProblem(_rhs_never_called, [math.nan], (0.0, 1.0), [1.0]),
                 "u0 must be finite, got [nan]", id="u0-nan"),
    pytest.param(lambda: sk.OdeProblem(_rhs_never_called, [1.0], (0.0, 1.0), [1.0],
                                       u0_jacobian=[[math.inf]]),
                 "u0_jacobian must be finite", id="u0-jacobian-inf"),
    pytest.param(lambda: SquaredErrorLoss([1.0], [[0.0]], [math.nan]), "weights must be finite",
                 id="weight-nan"),
    pytest.param(lambda: _gradient_with_epsilon("centered_fd", None, theta=[math.nan]),
                 "theta must be finite, got [nan]", id="theta-nan"),
    pytest.param(lambda: _gradient_with_epsilon("centered_fd", math.nan), "eps must be finite",
                 id="fd-epsilon-nan"),
    pytest.param(lambda: _gradient_with_epsilon("complex_step", math.nan), "eps must be finite",
                 id="complex-step-epsilon-nan"),
]


@pytest.mark.parametrize("call,message", NON_FINITE_SETTINGS)
def test_a_nan_or_infinite_setting_is_refused_before_any_rhs_call(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
    # an infinite dt stays legal: an adaptive solve's first attempt then
    # spans the whole span (the marching loop clips dt to it); the adjoints'
    # reverse passes no longer use it, as they start from the forward
    # controller's step
    assert sk.SolverConfig(dt=math.inf).dt == math.inf


def test_loss_grad_matches_finite_difference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.normal(size=3)
        target = rng.normal(size=3)
        w = rng.uniform(0.1, 4.0)
        loss = SquaredErrorLoss([1.0], [target], weights=[w])
        g = loss.grad_u_at(u, 0)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (loss.value_at(u + e, 0) - loss.value_at(u - e, 0)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("loss_type", [SquaredErrorLoss, LinearStateLoss])
def test_a_scalar_weight_weighs_each_observation_as_the_spelled_out_weights(loss_type):
    # a scalar weight applies to every observation time: the loss and every
    # method's gradient have the bits of one weight per time
    ent = sk.make_harmonic(0.2)
    times, values = [1.0, 2.5, 4.0], [[0.3, -0.1], [0.2, 0.4], [-0.5, 0.1]]
    scalar = loss_type(times, values, weights=2.0)
    spelled = loss_type(times, values, weights=np.full(3, 2.0))
    cfg = sk.SolverConfig(method="rk4", dt=0.25)  # every observation on the discrete grid
    sol = sk.solve(ent.problem, cfg)
    assert float(loss_eval(sol, scalar)).hex() == float(loss_eval(sol, spelled)).hex()
    for method in METHODS:
        got = sk.gradient(ent.problem, scalar, method, cfg).gradient
        assert got.tobytes() == sk.gradient(ent.problem, spelled, method, cfg).gradient.tobytes()


def test_linear_state_loss_selects_components(harmonic_solution):
    ent, sol = harmonic_solution
    loss = LinearStateLoss([10.0], [[1.0, 0.0]])
    assert loss_eval(sol, loss) == pytest.approx(math.sin(2.0) / 0.2, rel=1e-9)


def test_loss_eval_refuses_an_integrated_loss_for_its_running_integral():
    # du/dt = 0 from u0 = 2: integral of h = u1^2 over [0, 1] is exactly 4,
    # the last final-state component of the running-integral problem
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: np.zeros_like(u),
        u0=[2.0],
        tspan=(0.0, 1.0),
        theta=[0.0],
    )
    cfg = sk.SolverConfig(method="rk4", dt=0.25)
    loss = IntegratedLoss(
        h=lambda u, th: float(u[0]) ** 2,
        dh_du=lambda u, th: 2 * u,
        dh_dtheta=lambda u, th: np.zeros(1),
    )
    with pytest.raises(TypeError, match=r"core\.running_integral"):
        loss_eval(sk.solve(prob, cfg), loss)
    q = sk.solve(running_integral(prob, loss), cfg).final_state()[-1]
    assert q == pytest.approx(4.0, rel=1e-12)


CORE_INPUT_CHECKS = [
    pytest.param(lambda: sk.make_harmonic(0.2).problem.with_theta([0.1, 0.2]), ValueError,
                 "expected 1 parameters, got 2", id="with-theta-size"),
    pytest.param(lambda: SquaredErrorLoss([1.0, 2.0], np.zeros((3, 2))), ValueError,
                 "one target state per observation time", id="squared-target-count"),
    pytest.param(lambda: LinearStateLoss([1.0, 2.0], [[1.0, 0.0]]), ValueError,
                 "one coefficient vector per observation time", id="linear-target-count"),
    pytest.param(lambda: SquaredErrorLoss([1.0, 2.0], np.zeros((2, 2)), np.ones((3, 2))),
                 ValueError, "one weight (scalar or per-component vector) per observation",
                 id="weight-shape"),
    # each failed in numpy's broadcast_to, whose message named neither input
    pytest.param(lambda: LinearStateLoss([1.0], [[1.0, 0.0]], weights=[[1.0, 2.0]]), ValueError,
                 "one scalar weight per observation", id="linear-weight-rows"),
    pytest.param(lambda: LinearStateLoss([1.0, 2.0], np.eye(2), weights=[1.0, 2.0, 3.0]),
                 ValueError, "one scalar weight per observation", id="linear-weight-count"),
    pytest.param(lambda: LinearStateLoss([1.0], [[1.0]], [-1.0]), ValueError,
                 "weights must be non-negative", id="negative-weight"),
    pytest.param(lambda: SquaredErrorLoss([1.0, 1.0], np.zeros((2, 2))), ValueError,
                 "observation times must be distinct", id="repeated-times"),
    pytest.param(lambda: loss_eval(None, object()), TypeError,
                 "unknown loss specification object", id="loss-eval-type"),
    # each was built, then failed inside every method with a foreign error
    # (an IndexError, numpy's concatenate, or theta's shape blamed on a
    # theta the caller never passed) or in tuple unpacking
    pytest.param(lambda: sk.OdeProblem(_rhs_never_called, [[1.0, 1.0]], (0.0, 1.0), [1.0]),
                 ValueError, "u0 must be 1-D, got shape (1, 2)", id="u0-2d"),
    pytest.param(lambda: sk.OdeProblem(_rhs_never_called, [1.0], (0.0, 1.0), [[1.0]]),
                 ValueError, "theta must be 1-D, got shape (1, 1)", id="theta-2d"),
    pytest.param(lambda: sk.OdeProblem(_rhs_never_called, [1.0], (0.0, 1.0, 2.0), [1.0]),
                 ValueError, "tspan must be two ends (t0, t1), got (0.0, 1.0, 2.0)",
                 id="tspan-three-ends"),
]


@pytest.mark.parametrize("call,error,message", CORE_INPUT_CHECKS)
def test_core_input_checks_raise_their_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _build_with(name, value):
    """Build the problem or loss that takes ``value`` as its input ``name``."""
    rhs = sk.make_harmonic(0.2).problem.rhs
    if name in ("u0", "u0_jacobian"):
        extra = {"u0": value} if name == "u0" else {"u0": [0.0, 1.0], "u0_jacobian": value}
        return sk.OdeProblem(rhs=rhs, tspan=(0.0, 10.0), theta=[0.2], **extra)
    if name == "coefficients":
        return LinearStateLoss([5.0], value)
    if name == "weights":
        return SquaredErrorLoss([5.0], [[0.5, 0.5]], weights=value)
    return SquaredErrorLoss([5.0], value)


@pytest.mark.parametrize("form", ["numpy", "list"])
@pytest.mark.parametrize("name,value", [
    ("u0", [1 + 1e-3j, 0.0]),
    ("u0_jacobian", [[1e-3j], [0.0]]),
    ("targets", [[0.5 + 1j, 0.5]]),
    ("coefficients", [[1.0 + 0j, 0.0]]),
    ("weights", [1.0 + 1e-3j]),
])
def test_a_complex_input_is_refused_when_built(name, value, form):
    # these inputs are converted to float arrays, which drops an imaginary
    # part with only a ComplexWarning (a numpy array) or fails in numpy's
    # float() (a list of Python complex numbers); theta's rule names the input
    if form == "numpy":
        value = np.array(value)
    with pytest.raises(TypeError, match=rf"^{name} must be real, got complex values "):
        _build_with(name, value)
    assert _build_with(name, np.real(np.array(value))) is not None
