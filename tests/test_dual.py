import math
import operator

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
    assert type(s[0].value) is float
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


def test_comparisons_with_numpy_operands_on_the_left():
    d = MultiDual(3.0, [1.0])
    assert np.float64(2.0) < d and np.float64(3.0) <= d and np.float64(4.0) > d
    assert np.float64(3.0) == d and not np.float64(3.0) != d
    arr = MultiDual([1.0, 4.0], [[1.0], [1.0]])
    assert (np.array([2.0, 2.0]) < arr).tolist() == [False, True]


def test_scalar_multidual_is_not_a_sequence():
    # the class indexes arrays, but a scalar has no length: numpy builds
    # object arrays of scalars, and bool keeps the default of any object
    s, t = MultiDual(0.0, [1.0]), MultiDual(2.0, [3.0])
    assert bool(s) is True
    with pytest.raises(TypeError):
        len(s)
    with pytest.raises(TypeError):
        iter(s)
    packed = np.array([s, t])
    assert packed.dtype == object and packed.shape == (2,) and packed[0] is s
    assert np.asarray(s).shape == ()
    assert s.shape == () and s.ndim == 0 and type(s.value) is float


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
    assert np.array_equal(state.tangents, jac)
    # a plain entry, as a right-hand side with a constant component returns
    mixed = np.array([state[1], 0.5], dtype=object)
    assert dual.asarray(mixed).tangents.tolist() == [[0.0, -1.0], [0.0, 0.0]]


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


_ARITH_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]
_PLAIN_SCALARS = [3, -2, 0.1, -2.5, np.float64(0.75), np.float64(-1e-3), np.float32(0.1), np.int64(4)]


def _bits(d):
    # -0.0 + 0.0 == +0.0: compares bit patterns up to the sign of exact zeros
    return (np.float64(d.value) + 0.0).tobytes() + (d.tangents + 0.0).tobytes()


@pytest.mark.parametrize("op", _ARITH_OPS, ids=lambda op: op.__name__)
def test_scalar_operand_matches_zero_tangent_dual(op):
    duals = [MultiDual(1.7, [0.7, -0.0, 0.0, -3.1]), MultiDual(-0.3, [2.9, 1e-300, -1.3, 0.0])]
    for d in duals:
        before = d.tangents.copy()
        for c in _PLAIN_SCALARS:
            lifted = MultiDual(c, np.zeros(d.arity))
            for got, want in ((op(d, c), op(d, lifted)), (op(c, d), op(lifted, d))):
                assert isinstance(got, MultiDual)
                assert type(got.value) is float
                assert got.tangents.dtype == np.float64
                assert _bits(got) == _bits(want), (op.__name__, d, c)
            assert d.tangents.tobytes() == before.tobytes()


def test_operators_leave_operand_tangents_unchanged():
    a = MultiDual(1.5, [1.0, -2.0])
    b = MultiDual(-0.5, [0.25, 3.0])
    kept = a.tangents.copy(), b.tangents.copy()
    results = [op(x, y) for op in _ARITH_OPS for x, y in ((a, b), (b, a), (a, 2.0), (2.0, a))]
    results += [-a, +a, abs(b), a ** 3, a ** b, a.sin(), a.cos(), a.exp(), a.log(), a.sqrt()]
    assert np.array_equal(a.tangents, kept[0]) and np.array_equal(b.tangents, kept[1])


def test_scalar_division_by_zero_raises():
    d = MultiDual(1.0, [1.0, 2.0])
    for zero in (0.0, 0, -0.0, np.float64(0.0)):
        with pytest.raises(ZeroDivisionError):
            d / zero
    for c in (0.0, 1.0, 3):
        with pytest.raises(ZeroDivisionError):
            c / MultiDual(0.0, [1.0, 2.0])


@pytest.mark.parametrize("op", _ARITH_OPS, ids=lambda op: op.__name__)
def test_complex_operand_rejected(op):
    d = MultiDual(1.0, [1.0, 2.0])
    for c in (1j, 2.0 + 0.0j, np.complex128(1.0 + 1.0j)):
        with pytest.raises(TypeError):
            op(d, c)
        with pytest.raises(TypeError):
            op(c, d)


def test_constructor_rejects_non_1d_tangents():
    with pytest.raises(ValueError, match=r"1-D.*\(1, 2\)"):
        MultiDual(1.0, [[1.0, 2.0]])
    with pytest.raises(ValueError, match=r"1-D.*\(\)"):
        MultiDual(1.0, 2.0)
    assert MultiDual(np.float64(1.0), (1, 2)).tangents.dtype == np.float64


# -- array multiduals: one value array and one tangent array ------------------

_ARRAY_VALUES = [0.7, -1.3, 2.9, 0.45, -0.2]
_ARRAY_TANGENTS = [[0.5, -0.0], [1.25, 3.0], [-2.0, 0.0], [0.0, 1e-3], [7.0, -0.75]]
_POSITIVE_VALUES = [0.7, 1.3, 2.9, 0.45, 0.2]


def _dual_array(values=_ARRAY_VALUES):
    return MultiDual(values, _ARRAY_TANGENTS)


def _entries(d):
    return [MultiDual(v, t) for v, t in zip(d.value.tolist(), d.tangents)]


def _assert_entries_bitwise(got, want):
    assert isinstance(got, MultiDual) and isinstance(got.value, np.ndarray)
    assert got.value.dtype == np.float64 and got.tangents.dtype == np.float64
    assert got.value.tobytes() == np.array([w.value for w in want]).tobytes()
    assert got.tangents.tobytes() == np.array([w.tangents for w in want]).tobytes()


def _operands(positive):
    """(operand, its entry i) pairs of every supported kind."""
    rng = np.random.default_rng(5)
    arr = rng.uniform(0.5, 2.0, size=5) * (1.0 if positive else rng.choice([-1.0, 1.0], size=5))
    other = MultiDual(rng.uniform(0.5, 2.0, size=5), rng.normal(size=(5, 2)))
    m = MultiDual(1.7, [0.3, -1.1])
    return [
        (2.5, lambda i: 2.5),
        (3, lambda i: 3),
        (np.float64(0.75), lambda i: np.float64(0.75)),
        (np.float32(1.5), lambda i: np.float32(1.5)),
        (arr, lambda i: float(arr[i])),
        (m, lambda i: m),
        (other, lambda i: other[i]),
    ]


@pytest.mark.parametrize("op", _ARITH_OPS + [operator.pow], ids=lambda op: op.__name__)
def test_dual_array_operators_match_entrywise_multidual(op):
    positive = op is operator.pow
    d = _dual_array(_POSITIVE_VALUES if positive else _ARRAY_VALUES)
    entries = _entries(d)
    for x, entry in _operands(positive):
        if op is operator.pow and isinstance(x, (int, np.float32)):
            continue  # covered by the float and float64 exponents
        _assert_entries_bitwise(op(d, x), [op(e, entry(i)) for i, e in enumerate(entries)])
        _assert_entries_bitwise(op(x, d), [op(entry(i), e) for i, e in enumerate(entries)])
    assert d.tangents.tobytes() == np.array(_ARRAY_TANGENTS).tobytes()


def test_dual_array_integer_powers_and_negation():
    d = _dual_array()
    entries = _entries(d)
    for k in (2, 3, -1):
        _assert_entries_bitwise(d ** k, [e ** k for e in entries])
    _assert_entries_bitwise(-d, [-e for e in entries])
    _assert_entries_bitwise(np.negative(d), [-e for e in entries])


def test_dual_array_broadcasts_against_larger_constants():
    d = _dual_array()
    rows = np.array([[1.0], [-2.0]]) * np.ones((2, 5))
    entries = _entries(d)
    cases = (
        (d + rows, lambda e, c: e + c),
        (rows - d, lambda e, c: c - e),
        (d * rows, lambda e, c: e * c),
    )
    for got, entrywise in cases:
        assert got.shape == (2, 5) and got.tangents.shape == (2, 5, 2)
        for r in range(2):
            _assert_entries_bitwise(got[r], [entrywise(e, float(c)) for e, c in zip(entries, rows[r])])


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "log", "sqrt"])
def test_dual_array_ufuncs_match_entrywise_multidual(name):
    d = _dual_array(_POSITIVE_VALUES)
    ufunc = getattr(np, name)
    _assert_entries_bitwise(ufunc(d), [ufunc(e) for e in _entries(d)])


def test_dual_array_indexing():
    d = _dual_array()
    entries = _entries(d)
    first = d[1]
    assert isinstance(first, MultiDual) and type(first.value) is float
    assert _bits(first) == _bits(entries[1])
    assert _bits(d[-1]) == _bits(entries[-1])
    _assert_entries_bitwise(d[1:4], entries[1:4])
    _assert_entries_bitwise(d[::2], entries[::2])
    _assert_entries_bitwise(d[np.array([3, 0, 3])], [entries[3], entries[0], entries[3]])
    mask = np.array([True, False, False, True, True])
    _assert_entries_bitwise(d[mask], [e for e, keep in zip(entries, mask) if keep])
    assert len(d) == 5 and d.shape == (5,) and d.arity == 2 and d.dtype == object
    assert [_bits(e) for e in d] == [_bits(e) for e in entries]


def test_dual_array_concatenate_and_sum():
    d = _dual_array()
    entries = _entries(d)
    padded = np.concatenate(([0.0], d, [1.5, -2.0]))
    zero = MultiDual(0.0, [0.0, 0.0])
    _assert_entries_bitwise(
        padded, [zero] + entries + [MultiDual(1.5, [0.0, 0.0]), MultiDual(-2.0, [0.0, 0.0])]
    )
    _assert_entries_bitwise(np.concatenate((d, d[:2])), entries + entries[:2])
    total = np.sum(d)
    assert isinstance(total, MultiDual)
    assert _bits(total) == _bits(np.sum(np.array(entries, dtype=object)))
    # left to right, as numpy sums an object array of multiduals; numpy's
    # pairwise float summation would differ in the last bits here
    rng = np.random.default_rng(9)
    long = MultiDual(rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, 40), rng.normal(size=(40, 3)))
    want = np.sum(np.array(_entries(long), dtype=object))
    assert _bits(np.sum(long)) == _bits(want)
    assert float(np.sum(long.value)) != want.value


def test_dual_array_matmul_matches_entrywise_sum():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5))
    d = _dual_array()
    got = a @ d
    entries = _entries(d)
    want = [sum((float(a[i, j]) * entries[j] for j in range(1, 5)), float(a[i, 0]) * entries[0])
            for i in range(4)]
    want_v = np.array([w.value for w in want])
    want_t = np.array([w.tangents for w in want])
    assert np.linalg.norm(got.value - want_v) <= 1e-15 * np.linalg.norm(want_v)
    assert np.linalg.norm(got.tangents - want_t) <= 1e-15 * np.linalg.norm(want_t)
    row = a[0] @ d
    assert isinstance(row, MultiDual)
    assert row.value == pytest.approx(want[0].value, rel=1e-15)


def test_dual_array_mixed_arities_rejected():
    d = _dual_array()
    wide = MultiDual(np.ones(5), np.ones((5, 3)))
    for other in (wide, MultiDual(1.0, [1.0, 2.0, 3.0])):
        for op in _ARITH_OPS:
            with pytest.raises(ValueError, match="mixed multidual arities"):
                op(d, other)
            with pytest.raises(ValueError, match="mixed multidual arities"):
                op(other, d)
    with pytest.raises(ValueError, match="mixed multidual arities"):
        np.concatenate((d, wide))
    with pytest.raises(ValueError, match="mixed multidual arities"):
        dual.asarray(np.array([MultiDual(1.0, [1.0]), MultiDual(1.0, [1.0, 2.0])], dtype=object))
    with pytest.raises(ValueError):
        MultiDual(np.ones(3), np.ones((2, 2)))


def test_dual_array_log_and_sqrt_guard_non_positive_values():
    for bad in (0.0, -1.0):
        d = MultiDual([1.0, bad], [[1.0], [1.0]])
        with pytest.raises(NonSmoothPointError):
            np.log(d)
        with pytest.raises(NonSmoothPointError):
            np.sqrt(d)
        with pytest.raises(NonSmoothPointError):
            d ** MultiDual(2.0, [1.0])


def test_dual_array_rejects_complex_operands():
    d = _dual_array()
    for c in (1j, np.complex128(1.0 + 1.0j), np.ones(5, dtype=complex)):
        for op in _ARITH_OPS:
            with pytest.raises(TypeError):
                op(d, c)
            with pytest.raises(TypeError):
                op(c, d)


def test_boundary_packing():
    m = MultiDual(1.0, [1.0, 2.0])
    packed = dual.asarray(np.array([m, 0.5, 3], dtype=object))
    assert isinstance(packed, MultiDual)
    assert packed.value.tolist() == [1.0, 0.5, 3.0]
    # plain entries get zero tangents
    assert packed.tangents.tolist() == [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]
    for plain in (np.array([1.0, 2.0]), np.array([1.0 + 2.0j])):
        assert dual.asarray(plain) is plain
    d = _dual_array()
    assert dual.asarray(d) is d
    # numpy reads an array multidual as a sequence of scalar ones; packing
    # restores it
    assert not hasattr(MultiDual, "__array__")
    _assert_entries_bitwise(dual.asarray(np.asarray(d)), _entries(d))


def test_seed_state_refuses_a_jacobian_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"^initial-state jacobian must be \(2, 1\)$"):
        dual.seed_state([1.0, 2.0], np.zeros((1, 2)), 1)


def test_reflected_operators_match_their_closed_forms():
    # c - d, c / d and c ** d with a plain number or a float array on the
    # left: value and tangents by their closed forms, and each entry of an
    # array multidual has the bits of the scalar multidual holding it
    d = _dual_array(_POSITIVE_VALUES)
    v, t = d.value, d.tangents
    for c in (2.5, np.array([0.5, 1.5, 2.0, 3.0, 0.25])):
        cv = np.broadcast_to(c, v.shape)
        for got, value, tangents in (
            (c - d, cv - v, -t),
            (c / d, cv / v, -(cv / v**2)[:, None] * t),
            (c ** d, cv**v, (cv**v * np.log(cv))[:, None] * t),
        ):
            assert np.allclose(got.value, value, rtol=1e-15, atol=0.0)
            assert np.allclose(got.tangents, tangents, rtol=1e-14, atol=0.0)
        for op in (operator.sub, operator.truediv, operator.pow):
            _assert_entries_bitwise(op(c, d), [op(float(cv[i]), e)
                                               for i, e in enumerate(_entries(d))])
    x = DualScalar(2.0, 3.0)
    assert (5.0 - x).value == 3.0 and (5.0 - x).tangent == -3.0
    assert (1.0 / x).value == 0.5 and (1.0 / x).tangent == -0.75
    assert (4.0 ** x).value == 16.0 and (4.0 ** x).tangent == pytest.approx(48 * math.log(4.0))
    for base in (0.0, -2.0, np.array([1.0, -1.0, 2.0, 2.0, 2.0])):
        with pytest.raises(NonSmoothPointError, match="positive base"):
            base ** d


def test_reflected_operators_pack_an_object_array_on_the_left():
    # an object array of scalar multiduals on the left packs into one array
    # multidual, which then takes the operator's own two-dual rule
    left = np.array([MultiDual(2.0, [1.0, 0.0]), MultiDual(3.0, [0.0, 1.0])], dtype=object)
    right = MultiDual([1.5, 0.5], [[0.5, -1.0], [2.0, 0.25]])
    for op in (operator.sub, operator.truediv, operator.pow):
        got, want = op(left, right), op(dual.asarray(left), right)
        assert got.value.tobytes() == want.value.tobytes(), op.__name__
        assert got.tangents.tobytes() == want.tangents.tobytes(), op.__name__


def test_a_scalar_multidual_hashes_as_its_value():
    # it compares by its value coordinate, so it hashes by it too; an
    # array's value is an array, which has no hash
    d = MultiDual(1.5, [1.0, 2.0])
    assert hash(d) == hash(1.5) and d == 1.5
    assert {d: "kept"}[1.5] == "kept" and len({d, MultiDual(1.5, [0.0, 0.0])}) == 1
    with pytest.raises(TypeError):
        hash(_dual_array())


def test_an_unsupported_operand_or_numpy_call_raises_type_error():
    # every operator and numpy hook returns NotImplemented on what it does
    # not support, so Python or numpy raises TypeError, never a value
    for d in (MultiDual(1.5, [1.0, 2.0]), _dual_array(_POSITIVE_VALUES)):
        for bad in ("a", None, [1.0], object()):
            for op in _ARITH_OPS + [operator.pow]:
                with pytest.raises(TypeError):
                    op(d, bad)
                with pytest.raises(TypeError):
                    op(bad, d)
        with pytest.raises(TypeError):
            np.eye(5, dtype=complex) @ d
    d = _dual_array()
    for call in (lambda: np.eye(5) @ MultiDual(1.5, [1.0]),  # a scalar has no matmul
                 lambda: np.tan(d), lambda: np.arctan2(d, 1.0),  # ufuncs it lacks
                 lambda: np.add.reduce(d), lambda: np.add(d, 1.0, out=np.empty(5)),
                 lambda: np.mean(d)):  # a numpy function it lacks
        with pytest.raises(TypeError):
            call()


def test_the_boundary_helpers_on_their_remaining_inputs():
    # packing an object array of plain entries keeps its shape as floats;
    # as_dual refuses another arity; np.concatenate takes a negative axis;
    # value and tangents read a multidual and a plain number; absolute takes
    # a float array
    packed = dual.asarray(np.array([[1, 2.5], [3, 4]], dtype=object))
    assert packed.dtype == np.float64 and packed.tolist() == [[1.0, 2.5], [3.0, 4.0]]
    with pytest.raises(ValueError, match="mixed multidual arities 2 and 3"):
        dual.as_dual(MultiDual(1.0, [1.0, 2.0]), 3)
    d, tail = MultiDual([1.0, 2.0], [[1.0], [0.5]]), np.array([3.0])
    last, first = np.concatenate([d, tail], axis=-1), np.concatenate([d, tail], axis=0)
    assert last.value.tobytes() == first.value.tobytes()
    assert last.tangents.tobytes() == first.tangents.tobytes()
    assert dual.value(MultiDual(1.5, [2.0])) == 1.5 and dual.value(2.0 + 3.0j) == 2.0
    assert dual.tangents(2.0, 3).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="arity required"):
        dual.tangents(2.0)
    assert dual.absolute(np.array([-1.5, 2.0])).tolist() == [1.5, 2.0]
