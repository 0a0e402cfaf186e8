import math

import numpy as np
import pytest

from sensikit import dual
from sensikit.dual import DualScalar, MultiDual
from sensikit.errors import AnalyticityError, NonSmoothPointError


def test_product_rule_example():
    # (2+eps*3)*(4+eps*5) = 8 + eps*(2*5 + 3*4)
    r = DualScalar(2.0, 3.0) * DualScalar(4.0, 5.0)
    assert r.value == 8.0
    assert r.tangent == 22.0


def test_addition_linearity():
    x = 1.7
    r = DualScalar(x, 1.0) + DualScalar(x, 0.0)
    assert r.value == 2 * x
    assert r.tangent == 1.0


def test_quotient_rule_example():
    # hand oracle: (a'c - a c')/c^2 = (1*2 - 1*0)/4 = 0.5
    r = DualScalar(1.0, 1.0) / DualScalar(2.0, 0.0)
    assert r.value == 0.5
    assert r.tangent == 0.5


def test_division_by_zero_value():
    with pytest.raises(ZeroDivisionError):
        DualScalar(1.0, 1.0) / DualScalar(0.0, 2.0)


def test_sin_of_squared_argument():
    # d/dx sin(x^2) at x=1: value sin(1), tangent 2*cos(1)
    x = DualScalar(1.0, 1.0)
    r = np.sin(x * x)
    assert r.value == pytest.approx(0.8414709848078965, rel=1e-12)
    assert r.tangent == pytest.approx(2 * math.cos(1.0), rel=1e-12)
    assert r.tangent == pytest.approx(1.080604611736280, rel=1e-12)


def test_exp_at_zero():
    r = np.exp(DualScalar(0.0, 1.0))
    assert r.value == 1.0
    assert r.tangent == 1.0


def test_sqrt_at_four():
    r = np.sqrt(DualScalar(4.0, 1.0))
    assert r.value == 2.0
    assert r.tangent == 0.25


def test_abs_at_zero_raises():
    with pytest.raises(NonSmoothPointError):
        abs(DualScalar(0.0, 1.0))
    with pytest.raises(NonSmoothPointError):
        abs(MultiDual(0.0, [1.0]))


def test_abs_rejects_complex():
    with pytest.raises(AnalyticityError):
        dual.absolute(1.0 + 1e-12j)


def test_seed_single_parameter():
    s = dual.seed([0.2])
    assert len(s) == 1
    assert s[0].value == 0.2
    assert s[0].tangents.tolist() == [1.0]


def test_seed_basis_vectors():
    s = dual.seed([1.0, 2.0])
    assert s[0].tangents.tolist() == [1.0, 0.0]
    assert s[1].tangents.tolist() == [0.0, 1.0]


def test_seed_sum_is_linear():
    s = dual.seed([1.0, 2.0])
    total = s[0] + s[1]
    assert total.value == 3.0
    assert total.tangents.tolist() == [1.0, 1.0]


def test_seed_empty_rejected():
    with pytest.raises(ValueError):
        dual.seed([])


def test_mixed_arity_rejected():
    with pytest.raises(ValueError):
        MultiDual(1.0, [1.0]) + MultiDual(1.0, [1.0, 0.0])


def test_dualscalar_is_arity_one_multidual():
    x = DualScalar(2.0, 1.0)
    assert isinstance(x, MultiDual)
    assert x.arity == 1
    assert DualScalar(2.0).tangent == 0.0


def test_tangent_after_reflected_and_mixed_operations():
    x = DualScalar(2.0, 1.0)
    assert (1.0 / x).tangent == -0.25
    assert (2.0 - x).tangent == -1.0
    assert (3.0 * x).tangent == 3.0
    r = x ** DualScalar(2.0, 0.0)
    assert r.value == pytest.approx(4.0, rel=1e-15)
    assert r.tangent == pytest.approx(4.0, rel=1e-15)
    assert isinstance(r.tangent, float)


def test_tangent_requires_arity_one():
    with pytest.raises(ValueError, match="arity 2"):
        MultiDual(1.0, [1.0, 0.0]).tangent


def test_dualscalar_with_wider_multidual_rejected():
    with pytest.raises(ValueError, match="mixed multidual arities"):
        DualScalar(1.0, 1.0) + MultiDual(1.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="mixed multidual arities"):
        MultiDual(1.0, [1.0, 0.0]) * DualScalar(1.0, 1.0)


def test_comparisons_use_value_coordinate():
    a = DualScalar(1.0, 100.0)
    b = DualScalar(2.0, -100.0)
    assert a < b
    assert b > a
    assert a <= DualScalar(1.0, 0.0)
    assert MultiDual(3.0, [0.0]) > 2.5


_UNARY_CASES = [
    # (function of one dual, derivative oracle, sampler for admissible inputs)
    ("sin", lambda x: np.sin(x), math.sin, lambda r: r.uniform(-3, 3)),
    ("cos", lambda x: np.cos(x), math.cos, lambda r: r.uniform(-3, 3)),
    ("exp", lambda x: np.exp(x), math.exp, lambda r: r.uniform(-2, 2)),
    ("log", lambda x: np.log(x), math.log, lambda r: r.uniform(0.1, 5)),
    ("sqrt", lambda x: np.sqrt(x), math.sqrt, lambda r: r.uniform(0.1, 5)),
    ("pow2.5", lambda x: x ** 2.5, lambda v: v ** 2.5, lambda r: r.uniform(0.1, 3)),
    ("abs", lambda x: abs(x), abs, lambda r: r.uniform(0.1, 3) * r.choice([-1, 1])),
]


@pytest.mark.parametrize("name,fn,real_fn,sample", _UNARY_CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_lifted_tangent_matches_finite_difference(name, fn, real_fn, sample):
    rng = np.random.default_rng(hash(name) % 2**32)
    h = 1e-7
    for _ in range(1000):
        x = sample(rng)
        got = fn(DualScalar(x, 1.0)).tangent
        fd = (real_fn(x + h) - real_fn(x - h)) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_product_of_k_duals_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.integers(2, 6)
        vals = rng.uniform(-2, 2, size=k)
        tans = rng.uniform(-2, 2, size=k)
        prod = DualScalar(vals[0], tans[0])
        for v, t in zip(vals[1:], tans[1:]):
            prod = prod * DualScalar(v, t)
        # hand-computed product-rule expansion
        expect_v = np.prod(vals)
        expect_t = sum(
            tans[i] * np.prod([vals[j] for j in range(k) if j != i])
            for i in range(k)
        )
        assert prod.value == pytest.approx(expect_v, rel=1e-14, abs=1e-300)
        assert prod.tangent == pytest.approx(expect_t, rel=1e-13, abs=1e-13)


def test_multidual_arity_one_matches_dualscalar():
    rng = np.random.default_rng(11)

    def expression(x, one, two):
        return np.sin(x * x) + np.exp(x / (two + x * x)) - one * x ** 3

    for _ in range(100):
        v = rng.uniform(0.2, 2.0)
        a = expression(DualScalar(v, 1.0), 1.0, 2.0)
        # the same direction as the first of two tangent slots
        b = expression(MultiDual(v, [1.0, 0.0]), 1.0, 2.0)
        assert a.value == pytest.approx(b.value, rel=1e-15)
        assert a.tangent == pytest.approx(b.tangents[0], rel=1e-15)
        assert b.tangents[1] == 0.0


def test_state_seeding_with_jacobian():
    u0 = np.array([1.0, 2.0])
    jac = np.array([[0.5, 0.0], [0.0, -1.0]])
    state = dual.seed_state(u0, jac, 2)
    assert state[0].value == 1.0
    assert state[0].tangents.tolist() == [0.5, 0.0]
    assert state[1].tangents.tolist() == [0.0, -1.0]
    back = dual.jacobian_from_duals(state, 2)
    assert np.array_equal(back, jac)


def test_multidual_division_by_zero_value():
    with pytest.raises(ZeroDivisionError):
        MultiDual(1.0, [1.0]) / MultiDual(0.0, [2.0])


def test_log_domain_error():
    with pytest.raises(NonSmoothPointError):
        np.log(DualScalar(-1.0, 1.0))
    with pytest.raises(NonSmoothPointError):
        np.log(MultiDual(0.0, [1.0]))


def test_sqrt_domain_error():
    with pytest.raises(NonSmoothPointError):
        np.sqrt(DualScalar(-4.0, 1.0))
