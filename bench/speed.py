"""Machine-speed probe for the gradient-latency benchmark.

Shared machines change speed by up to 2x over tens of seconds (other
tenants on the same cores), which moves every latency of a benchmark run
together.  The probe times a fixed kernel that resembles sensikit's two
hot paths, small-array float stepping and object arrays of dual numbers,
but uses none of sensikit's code, so a change to the program cannot
change the probe.  Latencies are scaled by ``REFERENCE_S / probe`` to
the speed at which the kernel takes ``REFERENCE_S``; the raw figures are
reported beside them.
"""

from time import perf_counter

import numpy as np

# kernel time on an unloaded 2.0 GHz Xeon vCPU (Python 3.11, numpy 2.4)
REFERENCE_S = 3.6e-3


class _Dual:
    __slots__ = ("value", "tangents")

    def __init__(self, value, tangents):
        self.value = value
        self.tangents = tangents

    def __add__(self, other):
        return _Dual(self.value + other.value, self.tangents + other.tangents)

    def __mul__(self, other):
        return _Dual(self.value * other.value,
                     self.value * other.tangents + self.tangents * other.value)


_DUALS = np.array([_Dual(1.0 + 0.01 * i, np.full(32, 0.01)) for i in range(31)], dtype=object)


def _kernel() -> float:
    started = perf_counter()
    u = np.array([1.2, 0.9])
    for _ in range(300):
        k = np.array([u[0] - u[0] * u[1], -u[1] + u[0] * u[1]])
        u = u + 1e-3 * k
        float(np.sqrt(np.mean((k / (1e-8 + 1e-8 * np.abs(u))) ** 2)))
    a = _DUALS
    for _ in range(12):
        a = a * _DUALS + _DUALS
    return perf_counter() - started


def probe() -> float:
    """Kernel time in seconds: the fastest of three back-to-back runs."""
    return min(_kernel() for _ in range(3))


class Clock:
    """Wall-clock time plus the same time scaled to the reference speed.

    Each ``lap`` probes the machine and charges the time since the previous
    lap at the mean speed of the two probes around it; probing itself is
    not charged.
    """

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self._probe = probe()
        self._at = perf_counter()

    def lap(self) -> float:
        """Close the current lap; returns its speed factor (reference / probe)."""
        elapsed = perf_counter() - self._at
        current = probe()
        factor = REFERENCE_S / (0.5 * (self._probe + current))
        self.raw += elapsed
        self.scaled += elapsed * factor
        self._probe = current
        self._at = perf_counter()
        return factor

    def since_lap(self) -> float:
        return perf_counter() - self._at
