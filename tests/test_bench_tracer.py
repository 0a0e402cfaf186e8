"""The benchmark tracer still finds every layer and dual operator it wraps.

``bench/tracing.py`` patches sensikit by module attribute and by operator
name; a refactor that renames or moves one of them would silently drop a
per-layer metric (``dual.ops``, ``dual.self_s``, ...).  The tracer is loaded
from its file and only read, never edited.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

import sensikit as sk
from sensikit import solver
from sensikit.dual import MultiDual

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer_and_restores_the_originals():
    tracing = _load_tracing()
    originals = {op: MultiDual.__dict__[op] for op in ("__add__", "__mul__")}
    rk_step = solver.rk_step
    entry = sk.make_harmonic(0.2)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        res = sk.gradient(
            entry.problem, entry.loss, "forward_ad", sk.SolverConfig(abstol=1e-8, reltol=1e-8)
        )
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.dual_ops > 0
    assert tracer.summary()["by_name"]["solver.rk_step[dual]"]["calls"] > 0
    for op, fn in originals.items():
        assert MultiDual.__dict__[op] is fn
    assert solver.rk_step is rk_step
    assert res.gradient[0] == pytest.approx(entry.analytic_gradient()[0], rel=1e-5)


def test_tracer_sees_dual_array_steps_without_analytic_jacobians():
    # the state is a DualArray here, not an object array of multiduals: the
    # tracer must still split its rk_step spans off as dual ones
    tracing = _load_tracing()
    entry = sk.make_heat1d(8)
    problem = dataclasses.replace(entry.problem, rhs_jac_u=None, rhs_jac_theta=None)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        res = sk.gradient(problem, entry.loss, "forward_ad", sk.SolverConfig())
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.summary()["by_name"]["solver.rk_step[dual]"]["calls"] > 0
    # the wrappers only pass values through; forward AD needs no Jacobians
    plain = sk.gradient(entry.problem, entry.loss, "forward_ad", sk.SolverConfig())
    assert res.gradient.tobytes() == plain.gradient.tobytes()
