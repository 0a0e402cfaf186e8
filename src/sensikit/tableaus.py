"""Butcher tableaus for the explicit Runge-Kutta steppers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an explicit s-stage Runge-Kutta scheme.

    ``a`` is strictly lower triangular, ``b`` the update weights, ``b_hat``
    the lower-order embedded weights when the pair provides an error
    estimate, and ``c`` the stage abscissae.  ``order`` is the convergence
    order of the ``b`` update.  Each is kept as a tuple of Python floats
    (``a`` a tuple of rows), which the steppers read without numpy's
    per-scalar overhead.  A first-same-as-last (``fsal``) tableau's last
    row of ``a`` is ``b`` and its last abscissa 1: its last stage input is
    the step's result and its last stage the derivative there.  Two tables
    are cached from these, the step's rows and the reverse stage couplings.
    """

    name: str
    a: tuple
    b: tuple
    c: tuple
    order: int
    b_hat: Optional[tuple] = None
    fsal: bool = False

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        s = b.size
        if a.shape != (s, s):
            raise ValueError("a must be s x s")
        if np.any(np.triu(a) != 0.0):
            raise ValueError("explicit tableau requires a[i, j] = 0 for i <= j")
        if abs(b.sum() - 1.0) > 1e-12:
            raise ValueError("weights b must sum to 1 (consistency)")
        object.__setattr__(self, "a", tuple(map(tuple, a.tolist())))
        object.__setattr__(self, "b", tuple(b.tolist()))
        object.__setattr__(self, "c", tuple(np.asarray(self.c, dtype=float).tolist()))
        if self.b_hat is not None:
            bh = np.asarray(self.b_hat, dtype=float)
            if bh.shape != b.shape:
                raise ValueError("embedded weights must match stage count")
            object.__setattr__(self, "b_hat", tuple(bh.tolist()))
        if self.fsal and (self.a[-1] != self.b or self.c[-1] != 1.0):
            raise ValueError("a first-same-as-last tableau needs a[-1] = b and c[-1] = 1")

    @cached_property
    def step_rows(self) -> np.ndarray:
        """One step's coefficient rows, read-only, as ``solver.rk_step`` builds them:
        zero (for ``u``), ``a[1:]``, ``b`` unless FSAL and ``b_hat`` if any."""
        rows = [(0.0,) * self.stages, *self.a[1:]]
        if not self.fsal:
            rows.append(self.b)
        if self.b_hat is not None:
            rows.append(self.b_hat)
        out = np.array(rows)
        out.setflags(write=False)
        return out

    @cached_property
    def reverse_couplings(self) -> tuple:
        """What ``adjoint.step_vjp``'s reverse sweep walks: per stage, last first,
        ``(i, b_i, c_i, ((j, a_ji), ...))`` over the nonzero ``a_ji``, ``j > i``."""
        return tuple((i, self.b[i], self.c[i], tuple((j, row[i]) for j, row in enumerate(self.a)
                                                     if j > i and row[i] != 0.0))
                     for i in reversed(range(self.stages)))

    @property
    def stages(self) -> int:
        return len(self.b)

    @property
    def is_embedded(self) -> bool:
        return self.b_hat is not None


EULER = ButcherTableau(
    name="euler",
    a=[[0.0]],
    b=[1.0],
    c=[0.0],
    order=1,
)

RK4 = ButcherTableau(
    name="rk4",
    a=[
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    b=[1 / 6, 1 / 3, 1 / 3, 1 / 6],
    c=[0.0, 0.5, 0.5, 1.0],
    order=4,
)

# Dormand-Prince 5(4): 5th-order update with an embedded 4th-order estimate.
# First-same-as-last: the 7th stage evaluates f at the accepted state, so an
# accepted step hands its last stage to the next step as stage 1.
DOPRI5 = ButcherTableau(
    name="dopri5",
    a=[
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ],
    b=[35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    b_hat=[
        5179 / 57600,
        0.0,
        7571 / 16695,
        393 / 640,
        -92097 / 339200,
        187 / 2100,
        1 / 40,
    ],
    c=[0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0],
    order=5,
    fsal=True,
)

TABLEAUS = {"euler": EULER, "rk4": RK4, "dopri5": DOPRI5}
