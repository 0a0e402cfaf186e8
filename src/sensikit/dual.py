"""First-order dual numbers for forward-mode differentiation.

A dual number ``a + eps*b`` carries a value coordinate and a tangent
coordinate under truncated-Taylor arithmetic (``eps**2 == 0``), so pushing
seeded inputs through ordinary arithmetic yields exact first derivatives.
``MultiDual`` is the one dual type: it keeps one tangent per parameter
direction, with ``eps_i * eps_j == 0`` for every pair, which produces full
Jacobian rows in a single evaluation.  ``DualScalar(value, tangent)`` is
its arity-1 constructor, and ``MultiDual.tangent`` reads that single
coordinate back as a float.

Comparisons and ``bool`` conversion look at the value coordinate only, so
solver control flow (step acceptance, bracketing) runs unmodified on dual
states.  Derivatives across a value-order-dependent branch are therefore
one-sided.

Complex scalars for complex-step differentiation are the native Python /
numpy complex numbers: the imaginary part carries the eps-scaled
derivative, standard field arithmetic applies, and the only guard added
here is ``absolute`` refusing complex arguments (non-analytic).  Note the
usual caveat that eps below the underflow threshold of the arithmetic
cannot be recovered by dividing the imaginary part back out.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AnalyticityError, NonSmoothPointError

_SCALARS = (int, float, np.integer, np.floating)


class MultiDual:
    """Dual number with one tangent coordinate per parameter direction.

    The tangent arity is fixed when the computation is seeded; combining
    operands of different arity is an error rather than a broadcast.
    """

    __slots__ = ("value", "tangents")

    def __init__(self, value, tangents):
        self.value = float(value)
        self.tangents = np.asarray(tangents, dtype=float)

    @property
    def arity(self):
        return self.tangents.shape[0]

    @property
    def tangent(self):
        """The single tangent coordinate of an arity-1 dual, as a float."""
        if self.arity != 1:
            raise ValueError(
                f"tangent needs arity 1, this dual has arity {self.arity}; read tangents"
            )
        return float(self.tangents[0])

    def __repr__(self):
        return f"MultiDual({self.value!r}, {self.tangents.tolist()!r})"

    def _coerce(self, other):
        if isinstance(other, MultiDual):
            if other.tangents.shape != self.tangents.shape:
                raise ValueError(
                    f"mixed multidual arities {self.arity} and {other.arity}"
                )
            return other
        if isinstance(other, _SCALARS):
            return MultiDual(other, np.zeros_like(self.tangents))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiDual(self.value + o.value, self.tangents + o.tangents)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiDual(self.value - o.value, self.tangents - o.tangents)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiDual(o.value - self.value, o.tangents - self.tangents)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiDual(
            self.value * o.value,
            self.value * o.tangents + self.tangents * o.value,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.value == 0.0:
            raise ZeroDivisionError("dual division by zero value coordinate")
        q = self.value / o.value
        return MultiDual(q, (self.tangents - q * o.tangents) / o.value)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return MultiDual(-self.value, -self.tangents)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if isinstance(exponent, MultiDual):
            return (exponent * self.log()).exp()
        if isinstance(exponent, _SCALARS):
            v = self.value ** exponent
            return MultiDual(
                v, exponent * self.value ** (exponent - 1) * self.tangents
            )
        return NotImplemented

    def __abs__(self):
        if self.value == 0.0:
            raise NonSmoothPointError("abs is not differentiable at 0")
        s = math.copysign(1.0, self.value)
        return MultiDual(abs(self.value), s * self.tangents)

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
        return self.value

    def sin(self):
        return MultiDual(math.sin(self.value), self.tangents * math.cos(self.value))

    def cos(self):
        return MultiDual(math.cos(self.value), -self.tangents * math.sin(self.value))

    def exp(self):
        v = math.exp(self.value)
        return MultiDual(v, self.tangents * v)

    def log(self):
        if self.value <= 0.0:
            raise NonSmoothPointError("log requires a positive value coordinate")
        return MultiDual(math.log(self.value), self.tangents / self.value)

    def sqrt(self):
        if self.value <= 0.0:
            raise NonSmoothPointError("sqrt tangent undefined at a non-positive value")
        v = math.sqrt(self.value)
        return MultiDual(v, self.tangents / (2.0 * v))


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
    """Seed a parameter vector as multiduals with canonical basis tangents.

    Entry ``i`` gets value ``theta[i]`` and tangent vector ``e_i``, so a
    computation on the seeded vector carries the full Jacobian with respect
    to ``theta``.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError("parameter vector must be 1-D and non-empty")
    p = theta.size
    eye = np.eye(p)
    return np.array([MultiDual(theta[i], eye[i]) for i in range(p)], dtype=object)


def seed_state(u0, u0_jacobian, p):
    """Lift an initial state to multiduals with tangents from its Jacobian.

    ``u0_jacobian`` is the n-by-p matrix of initial-state derivatives with
    respect to the parameters (zero when the initial condition does not
    depend on them).
    """
    u0 = np.asarray(u0, dtype=float)
    if u0_jacobian is None:
        u0_jacobian = np.zeros((u0.size, p))
    u0_jacobian = np.asarray(u0_jacobian, dtype=float)
    if u0_jacobian.shape != (u0.size, p):
        raise ValueError(f"initial-state jacobian must be {(u0.size, p)}")
    return np.array(
        [MultiDual(u0[i], u0_jacobian[i]) for i in range(u0.size)], dtype=object
    )


def jacobian_from_duals(state, p):
    """Extract the n-by-p tangent matrix from a multidual state vector."""
    state = np.asarray(state)
    return np.array([tangents(x, p) for x in state.ravel()]).reshape(state.shape + (p,))


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
