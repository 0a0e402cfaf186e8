"""First-order dual numbers for forward-mode differentiation.

A dual number ``a + eps*b`` carries a value coordinate and a tangent
coordinate under truncated-Taylor arithmetic (``eps**2 == 0``), so pushing
seeded inputs through ordinary arithmetic yields exact first derivatives.
``MultiDual`` is the one dual type: it keeps one tangent per parameter
direction, with ``eps_i * eps_j == 0`` for every pair, which produces full
Jacobian rows in a single evaluation.  ``DualScalar(value, tangent)`` is
its arity-1 scalar constructor, and ``MultiDual.tangent`` reads that single
coordinate back as a float.

A multidual is a scalar or an array of entries: ``value`` is a Python
float or a float array of shape ``S``, and ``tangents`` a float array of
shape ``S + (k,)`` (the chunked layout of Revels, Lubin & Papamarkou 2016,
arXiv 1607.07892).  ``seed``/``seed_state`` return arrays, and Jacobian
assembly makes one right-hand-side call on them; forward AD's stage
tangents are such calls and its loss terms are evaluated on them, while
the state it integrates stays a packed float array.  Each operator is
written once, for whole arrays; on a scalar it computes the same
floating-point operations, so an array entry and the scalar holding it
give the same bits.  A generic right-hand side may use
on a dual state: ``+ - * / **`` with plain numbers, float arrays and
multiduals in either order, negation, ``float_matrix @ state``, integer
indexing (a scalar), slices and index arrays (an array), ``len`` and
iteration, ``np.concatenate`` with float operands, ``np.sum``, the ufuncs
``sin``, ``cos``, ``exp``, ``log``, ``sqrt`` and ``abs``, and
``np.array([...])`` of scalar entries.  It may not write into a dual array
in place, nor take ``float()`` of an entry (``math`` functions and
``np.asarray(..., dtype=float)`` do): that drops the tangents, so it raises
``AnalyticityError`` (a ``ValueError`` through numpy).  ``asarray`` is the
boundary conversion of a right-hand-side result in Jacobian assembly
(through ``as_dual``); the solver steps float and complex states only.  It
packs an object array of multiduals (plain entries get zero tangents) into
one array multidual and passes float and complex arrays through.

Plain real operands (``int``, ``float``, numpy real scalars and arrays)
are constants that never get a zero tangent array: ``d + c`` and ``d - c``
keep ``d.tangents``, ``c - d``, ``d * c`` and ``d / c`` build one new
array.  Tangent arrays may therefore be shared between duals (and with the
rows a dual was seeded from); no code writes one in place.  Operator
results skip the type conversion and shape check of the constructor:
``_dual`` builds them, and ``+ - *`` with a Python float or a multidual
of their own shape, and indexing, build theirs inline.  A scalar's value
coordinate stays a Python float, so dividing by a zero scalar raises
``ZeroDivisionError``, while array division follows numpy (``inf``/``nan``
and a warning, which the solver reports as a non-finite stage).  Elementary functions and
powers use numpy's implementations: numpy's ``exp``, ``log`` and ``power``
differ from the ``math`` module's in the last bit for some arguments, and
scalars and array entries must agree.

Comparisons of a ``MultiDual`` look at the value coordinate only, so the
control flow of a right-hand side or a loss runs unmodified on dual inputs.  Derivatives across a value-order-dependent branch are therefore
one-sided.  ``bool`` of a scalar is always true, as for any object.

Complex scalars for complex-step differentiation are the native Python /
numpy complex numbers: the imaginary part carries the eps-scaled
derivative, standard field arithmetic applies, and the only guard added
here is ``absolute`` refusing complex arguments (non-analytic).  Note the
usual caveat that eps below the underflow threshold of the arithmetic
cannot be recovered by dividing the imaginary part back out.
"""

from __future__ import annotations

import numpy as np

from .errors import AnalyticityError, NonSmoothPointError

_SCALARS = (float, int, np.integer, np.floating)


class MultiDual:
    """Dual number, or array of them, with one tangent per parameter direction.

    ``value`` is a Python float or a float array of shape ``S``, and
    ``tangents`` a float array of shape ``S + (k,)``; entry ``i`` of an
    array is ``MultiDual(value[i], tangents[i])``.  The arity ``k`` is fixed
    when the computation is seeded: operands of another arity raise
    ``ValueError`` rather than broadcast, and complex operands raise
    ``TypeError``.  A plain real operand is a constant whose zero tangents
    are never allocated, so ``tangents`` may be shared with other duals
    (``d + 2.0`` keeps it) and is never written in place.

    ``dtype`` reads ``object``, as an object array of multiduals did, so
    code asking for the scalar kind of a state sees a dual one.  There is
    deliberately no ``__array__``: ``np.asarray`` would drop the tangents.
    """

    __slots__ = ("value", "tangents")

    dtype = np.dtype(object)

    def __init__(self, value, tangents):
        value = np.asarray(value, dtype=float)
        tangents = np.asarray(tangents, dtype=float)
        if tangents.shape[:-1] != value.shape or tangents.ndim != value.ndim + 1:
            raise ValueError(
                f"multidual tangents must add one 1-D axis to the value shape "
                f"{value.shape}, got shape {tangents.shape}"
            )
        self.value = _val(value)
        self.tangents = tangents

    @property
    def arity(self):
        return self.tangents.shape[-1]

    @property
    def shape(self):
        return self.tangents.shape[:-1]

    @property
    def ndim(self):
        return self.tangents.ndim - 1

    @property
    def tangent(self):
        """The single tangent coordinate of an arity-1 dual (a float for a scalar)."""
        if self.arity != 1:
            raise ValueError(
                f"tangent needs arity 1, this dual has arity {self.arity}; read tangents"
            )
        return _val(self.tangents[..., 0])

    def __repr__(self):
        return f"MultiDual({np.asarray(self.value).tolist()!r}, {self.tangents.tolist()!r})"

    def __len__(self):
        return len(self.value)  # TypeError for a scalar, whose value is a float

    def __iter__(self):
        return (self[i] for i in range(len(self.value)))

    def __getitem__(self, key):
        v = self.value[key]
        d = _new(MultiDual)
        d.value = v if isinstance(v, np.ndarray) and v.ndim else float(v)
        d.tangents = self.tangents[key]
        return d

    def __bool__(self):
        # a scalar is true, as any object; an array is a sequence
        return type(self.value) is float or len(self.value) > 0

    def _operand(self, other):
        """``other`` as a multidual of this arity or a float constant; None if unsupported.

        ``+ - * /`` skip the call for a Python float or a multidual of their
        own shape, the common operands; ``+ - *`` then build their result
        inline, as ``_dual`` does.
        """
        if isinstance(other, MultiDual):
            if other.tangents.shape[-1] != self.tangents.shape[-1]:
                raise _mixed_arities(self, other)
            return other
        if isinstance(other, _SCALARS):
            return float(other)
        if isinstance(other, np.ndarray):
            if other.dtype == object:
                return self._operand(asarray(other))
            if other.dtype.kind in "iuf":
                return other if other.ndim else float(other)
        return None

    def __add__(self, other):
        if type(other) is float:
            d = _new(MultiDual)
            d.value = self.value + other
            d.tangents = self.tangents
            return d
        if type(other) is MultiDual and other.tangents.shape == self.tangents.shape:
            d = _new(MultiDual)
            d.value = self.value + other.value
            d.tangents = self.tangents + other.tangents
            return d
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, MultiDual):
            return _dual(self.value + o.value, self.tangents + o.tangents)
        return _spread(self.value + o, self.tangents)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is float:
            d = _new(MultiDual)
            d.value = self.value - other
            d.tangents = self.tangents
            return d
        if type(other) is MultiDual and other.tangents.shape == self.tangents.shape:
            d = _new(MultiDual)
            d.value = self.value - other.value
            d.tangents = self.tangents - other.tangents
            return d
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, MultiDual):
            return _dual(self.value - o.value, self.tangents - o.tangents)
        return _spread(self.value - o, self.tangents)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, MultiDual):
            return o - self
        return _spread(o - self.value, -self.tangents)

    def __mul__(self, other):
        if type(other) is float:
            d = _new(MultiDual)
            d.value = self.value * other
            d.tangents = self.tangents * other
            return d
        if type(other) is MultiDual and other.tangents.shape == self.tangents.shape:
            a, b = self.value, other.value
            d = _new(MultiDual)
            d.value = a * b
            if type(a) is not float:  # arrays of one shape: a column per entry
                a, b = a[..., None], b[..., None]
            d.tangents = a * other.tangents + self.tangents * b
            return d
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, MultiDual):
            return _dual(
                self.value * o.value,
                _col(self.value) * o.tangents + self.tangents * _col(o.value),
            )
        return _dual(self.value * o, self.tangents * _col(o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = (other if type(other) is float or type(other) is MultiDual
             and other.tangents.shape == self.tangents.shape else self._operand(other))
        if o is None:
            return NotImplemented
        if isinstance(o, MultiDual):
            q = self.value / o.value
            return _dual(q, (self.tangents - _col(q) * o.tangents) / _col(o.value))
        return _dual(self.value / o, self.tangents / _col(o))

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, MultiDual):
            return o / self
        q = o / self.value
        # (-q * t) / v, not t * (-q / v): the same rounding as the quotient
        # rule of two duals
        return _dual(q, (-_col(q) * self.tangents) / _col(self.value))

    def __neg__(self):
        return _dual(-self.value, -self.tangents)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        o = self._operand(exponent)
        if o is None:
            return NotImplemented
        if isinstance(o, MultiDual):
            return (o * self.log()).exp()
        return _dual(
            _val(np.power(self.value, o)),
            _col(o * np.power(self.value, o - 1)) * self.tangents,
        )

    def __rpow__(self, base):
        o = self._operand(base)
        if o is None:
            return NotImplemented
        if isinstance(o, MultiDual):
            return o ** self
        if np.any(np.less_equal(o, 0.0)):
            raise NonSmoothPointError("power needs a positive base to differentiate its exponent")
        v = np.power(o, self.value)
        return _dual(_val(v), _col(v * np.log(o)) * self.tangents)

    def __rmatmul__(self, other):
        if not (isinstance(other, np.ndarray) and other.dtype.kind in "iuf" and self.ndim == 1):
            return NotImplemented
        return _dual(_val(other @ self.value), other @ self.tangents)

    def __abs__(self):
        if np.any(np.equal(self.value, 0.0)):
            raise NonSmoothPointError("abs is not differentiable at 0")
        return _dual(abs(self.value), _col(np.copysign(1.0, self.value)) * self.tangents)

    def __lt__(self, other):
        return self.value < _value_of(other)

    def __le__(self, other):
        return self.value <= _value_of(other)

    def __gt__(self, other):
        return self.value > _value_of(other)

    def __ge__(self, other):
        return self.value >= _value_of(other)

    def __eq__(self, other):
        return self.value == _value_of(other)

    def __ne__(self, other):
        return self.value != _value_of(other)

    def __hash__(self):
        return hash(self.value)

    def __float__(self):
        raise AnalyticityError("float() of a multidual drops its tangents; use numpy's functions "
                               "(np.sin, not math.sin; no dtype=float) or centered_fd")

    def sin(self):
        return _dual(_val(np.sin(self.value)), self.tangents * _col(np.cos(self.value)))

    def cos(self):
        return _dual(_val(np.cos(self.value)), -self.tangents * _col(np.sin(self.value)))

    def exp(self):
        v = np.exp(self.value)
        return _dual(_val(v), self.tangents * _col(v))

    def log(self):
        if np.any(np.less_equal(self.value, 0.0)):
            raise NonSmoothPointError("log requires a positive value coordinate")
        return _dual(_val(np.log(self.value)), self.tangents / _col(self.value))

    def sqrt(self):
        if np.any(np.less_equal(self.value, 0.0)):
            raise NonSmoothPointError("sqrt tangent undefined at a non-positive value")
        v = np.sqrt(self.value)
        return _dual(_val(v), self.tangents / _col(2.0 * v))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if len(inputs) == 1:
            name = _UNARY_UFUNCS.get(ufunc)
            return NotImplemented if name is None else getattr(self, name)()
        own, reflected = _BINARY_UFUNCS.get(ufunc, (None, None))
        a, b = inputs
        name, other = (own, b) if a is self else (reflected, a)
        return NotImplemented if name is None else getattr(self, name)(other)

    def __array_function__(self, func, types, args, kwargs):
        fn = _FUNCTIONS.get(func)
        if fn is None:
            return NotImplemented
        return fn(*args, **kwargs)


_new = object.__new__


def _dual(value, tangents):
    """A ``MultiDual`` from its coordinates, skipping ``__init__``.

    The caller guarantees the types (a Python float or a float array, and
    a float array of that shape plus one axis), so the hot path pays no
    conversion.
    """
    d = _new(MultiDual)
    d.value = value
    d.tangents = tangents
    return d


def _mixed_arities(a, b):
    return ValueError(f"mixed multidual arities {a.arity} and {b.arity}")


def _val(v):
    # a value coordinate: a 0-d result becomes a Python float
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def _col(v):
    # a per-entry factor against an S + (k,) tangent array; a float as it is
    return v[..., None] if isinstance(v, np.ndarray) else v


def _spread(value, tangents):
    # an array constant may broadcast the value to more entries
    if isinstance(value, np.ndarray) and tangents.shape[:-1] != value.shape:
        tangents = np.broadcast_to(tangents, value.shape + tangents.shape[-1:])
    return _dual(value, tangents)


def asarray(x):
    """A state as an array: the conversion applied to right-hand-side results.

    A ``MultiDual`` passes as it is; an object array holding multiduals is
    packed into one (plain entries get zero tangents); anything else goes
    through ``np.asarray``, so float and complex arrays pass unchanged.
    """
    if isinstance(x, MultiDual):
        return x
    x = np.asarray(x)
    if x.dtype == object:
        return _pack(x)
    return x


def _pack(entries):
    flat = entries.ravel().tolist()
    for x in flat:
        if isinstance(x, MultiDual):
            arity = x.arity
            break
    else:
        return np.array(flat).reshape(entries.shape)
    try:
        tangents = np.array(
            [x.tangents if isinstance(x, MultiDual) else np.zeros(arity) for x in flat]
        )
    except ValueError as err:  # rows of different lengths
        raise ValueError("mixed multidual arities in one array") from err
    values = np.array([x.value if isinstance(x, MultiDual) else x for x in flat], dtype=float)
    return _dual(_val(values.reshape(entries.shape)), tangents.reshape(entries.shape + (arity,)))


def as_dual(x, arity):
    """``x`` as a ``MultiDual`` of the given arity; plain entries get zero tangents."""
    x = asarray(x)
    if not isinstance(x, MultiDual):
        x = np.asarray(x, dtype=float)
        return _dual(_val(x), np.zeros(x.shape + (arity,)))
    if x.arity != arity:
        raise ValueError(f"mixed multidual arities {x.arity} and {arity}")
    return x


def _concatenate(arrays, axis=0):
    # each part converted once: a multidual gives its coordinates, a plain
    # part its float values and zero tangents
    parts = [asarray(a) for a in arrays]
    arity = next(p.arity for p in parts if isinstance(p, MultiDual))
    values, tangents = [], []
    for p in parts:
        if isinstance(p, MultiDual):
            if p.arity != arity:
                raise ValueError(f"mixed multidual arities {p.arity} and {arity}")
            values.append(p.value)
            tangents.append(p.tangents)
        else:
            p = np.asarray(p, dtype=float)
            values.append(p)
            tangents.append(np.zeros(p.shape + (arity,)))
    if axis < 0:
        axis += tangents[0].ndim - 1
    return _dual(np.concatenate(values, axis), np.concatenate(tangents, axis))


def _sum(a):
    # every entry, left to right, as numpy sums an object array: pairwise
    # summation would change bits
    value = np.ravel(a.value)
    tangents = a.tangents.reshape(-1, a.arity)
    return _dual(float(np.cumsum(value)[-1]), np.cumsum(tangents, axis=0)[-1])


# ufunc -> method name(s): the dispatch goes through the class attributes
_UNARY_UFUNCS = {
    np.negative: "__neg__",
    np.absolute: "__abs__",
    np.sin: "sin",
    np.cos: "cos",
    np.exp: "exp",
    np.log: "log",
    np.sqrt: "sqrt",
}
_BINARY_UFUNCS = {
    np.add: ("__add__", "__radd__"),
    np.subtract: ("__sub__", "__rsub__"),
    np.multiply: ("__mul__", "__rmul__"),
    np.true_divide: ("__truediv__", "__rtruediv__"),
    np.power: ("__pow__", "__rpow__"),
    np.matmul: (None, "__rmatmul__"),
    np.less: ("__lt__", "__gt__"),
    np.less_equal: ("__le__", "__ge__"),
    np.greater: ("__gt__", "__lt__"),
    np.greater_equal: ("__ge__", "__le__"),
    np.equal: ("__eq__", "__eq__"),
    np.not_equal: ("__ne__", "__ne__"),
}
_FUNCTIONS = {np.concatenate: _concatenate, np.sum: _sum}


def DualScalar(value, tangent=0.0) -> MultiDual:
    """Dual number with a single tangent coordinate: an arity-1 ``MultiDual``."""
    return MultiDual(value, [tangent])


def _value_of(x):
    if isinstance(x, MultiDual):
        return x.value
    return x


def value(x):
    """Value coordinate of a scalar, stripping any tangent information."""
    if isinstance(x, MultiDual):
        return x.value
    return float(np.real(x)) if np.iscomplexobj(x) else float(x)


def tangents(x, arity=None):
    """Tangent coordinates of a scalar as a 1-D float array.

    Plain numbers have all-zero tangents; ``arity`` sizes that zero vector.
    """
    if isinstance(x, MultiDual):
        return x.tangents
    if arity is None:
        raise ValueError("arity required to build zero tangents of a plain number")
    return np.zeros(arity)


def seed(theta):
    """Seed a parameter vector as a ``MultiDual`` array with canonical basis tangents.

    Entry ``i`` gets value ``theta[i]`` and tangent vector ``e_i``, so a
    computation on the seeded vector carries the full Jacobian with respect
    to ``theta``.
    """
    theta = np.array(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError("parameter vector must be 1-D and non-empty")
    return _dual(theta, np.eye(theta.size))


def seed_state(u0, u0_jacobian, p):
    """Lift an initial state to a ``MultiDual`` array with tangents from its Jacobian.

    ``u0_jacobian`` is the n-by-p matrix of initial-state derivatives with
    respect to the parameters (zero when the initial condition does not
    depend on them).
    """
    u0 = np.array(u0, dtype=float).reshape(-1)
    if u0_jacobian is None:
        u0_jacobian = np.zeros((u0.size, p))
    u0_jacobian = np.asarray(u0_jacobian, dtype=float)
    if u0_jacobian.shape != (u0.size, p):
        raise ValueError(f"initial-state jacobian must be {(u0.size, p)}")
    return _dual(u0, u0_jacobian)


def absolute(x):
    """Absolute value, rejecting complex arguments.

    ``abs`` is not complex-analytic, so reaching it on the complex-step
    path would silently zero the derivative; raising here keeps that
    failure loud.  Dual arguments additionally reject the point 0 where no
    one-sided derivative exists.
    """
    if np.iscomplexobj(x):
        raise AnalyticityError(
            "abs of a complex argument is not analytic; "
            "complex-step differentiation would return a wrong derivative"
        )
    return np.abs(x)
