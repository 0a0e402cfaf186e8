"""The benchmark tracer still finds every layer and dual operator it wraps.

``bench/tracing.py`` patches sensikit by module attribute and by operator
name; a refactor that renames or moves one of them would silently drop a
per-layer metric (``dual.ops``, ``dual.self_s``, ...).  The tracer is loaded
from its file and only read, never edited.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
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


def _dual_s_inside(tracer, name):
    """Dual-operator time charged to spans called ``name`` or nested in one."""
    spans = tracer.arrays()
    inside = spans["name"] == list(spans["names"]).index(name)
    # a span opens after its parent, so one pass in order resolves nesting
    for sid, parent in enumerate(spans["parent"]):
        if parent >= 0 and inside[parent]:
            inside[sid] = True
    return spans["dual_s"][inside].sum()


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
    # forward AD steps a packed float state; its multidual right-hand sides
    # run inside those steps
    assert tracer.dual_ops > 0
    assert _dual_s_inside(tracer, "solver.rk_step[float]") > 0
    for op, fn in originals.items():
        assert MultiDual.__dict__[op] is fn
    assert solver.rk_step is rk_step
    assert res.gradient[0] == pytest.approx(entry.analytic_gradient()[0], rel=1e-5)


def test_tracer_sees_dual_array_steps_without_analytic_jacobians():
    # each stage tangent is a multidual call on whole arrays, made inside a
    # float step: the tracer must still count its operators and charge their
    # time there
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
    by_name = tracer.summary()["by_name"]
    assert by_name["solver.rk_step[float]"]["calls"] > 0
    assert "solver.rk_step[dual]" not in by_name
    assert tracer.dual_ops > 0
    assert _dual_s_inside(tracer, "solver.rk_step[float]") > 0
    # the wrappers only pass values through; forward AD needs no Jacobians
    plain = sk.gradient(entry.problem, entry.loss, "forward_ad", sk.SolverConfig())
    assert res.gradient.tobytes() == plain.gradient.tobytes()


def test_tracer_counts_array_level_dual_arithmetic():
    # a diffusion-style rhs that never touches a scalar entry: every dual
    # operation is an operator of a whole array, and the tracer must still
    # count it and charge its time (dual.ops, dual.self_s)
    n_cells, p = 8, 4
    segment = (np.arange(n_cells) * p) // n_cells

    def rhs(u, theta, t):
        padded = np.concatenate(([0.0], u, [0.0]))
        flux = theta[segment] * (padded[1:] - padded[:-1])
        return (flux[1:] - flux[:-1]) * (n_cells * n_cells)

    x = np.arange(1, n_cells) / n_cells
    problem = sk.OdeProblem(rhs=rhs, u0=np.sin(np.pi * x), tspan=(0.0, 0.1), theta=np.full(p, 0.1))
    loss = sk.LinearStateLoss([0.1], [np.ones(n_cells - 1)])
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        res = sk.gradient(problem, loss, "forward_ad", sk.SolverConfig())
        # numpy's ufuncs dispatch to the operators by name, so they count too
        ops = tracer.dual_ops
        np.exp(np.sin(MultiDual(np.ones(3), np.ones((3, 2)))))
        ufunc_ops = tracer.dual_ops - ops
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert ufunc_ops == 2
    assert tracer.dual_ops > 0
    assert tracer.summary()["dual_s"] > 0
    # the rhs inside the steps, not only the scalar loss evaluation
    assert _dual_s_inside(tracer, "solver.rk_step[float]") > 0
    plain = sk.gradient(problem, loss, "forward_ad", sk.SolverConfig())
    assert res.gradient.tobytes() == plain.gradient.tobytes()


def test_tracer_sees_dense_output_and_quadrature_in_the_quadrature_adjoint():
    # the cached Gauss-Legendre rule and the one-search dense output must
    # still run through the module attributes the tracer rebinds
    tracing = _load_tracing()
    entry = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        res = sk.gradient(entry.problem, entry.loss, "continuous_quadrature", cfg)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    by_name = tracer.summary()["by_name"]
    assert by_name["solver.dense_eval"]["calls"] > 0
    assert by_name["adjoint.gauss_legendre"]["calls"] > 0
    plain = sk.gradient(entry.problem, entry.loss, "continuous_quadrature", cfg)
    assert res.gradient.tobytes() == plain.gradient.tobytes()


def test_tracer_sees_backsolve_reverse_solves():
    # backsolve integrates its reversed intervals through the same module
    # attribute as the dense adjoints, so the tracer charges them to the
    # reverse-solve layer
    tracing = _load_tracing()
    entry = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        res = sk.gradient(entry.problem, entry.loss, "continuous_backsolve", cfg)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    by_name = tracer.summary()["by_name"]
    assert by_name["adjoint.costate_interval"]["calls"] > 0
    plain = sk.gradient(entry.problem, entry.loss, "continuous_backsolve", cfg)
    assert res.gradient.tobytes() == plain.gradient.tobytes()


def test_tracer_sees_the_discrete_adjoint_read_its_stage_tape():
    # the reverse pass reads each step's stage inputs off the tape recorded
    # during checkpoint replay: rk_step runs once per forward step and once
    # per replayed step, and step_vjp once per step, evaluating no stage
    tracing = _load_tracing()
    entry = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(method="rk4", dt=0.01)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        res = sk.gradient(entry.problem, entry.loss, "discrete_adjoint", cfg, checkpoints=4)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    summary = tracer.summary()
    by_name = summary["by_name"]
    assert by_name["adjoint.step_vjp"]["calls"] == 1000
    assert by_name["solver.rk_step[float]"]["calls"] == 1000 + 1000
    assert summary["replay_steps"] == 1000
    plain = sk.gradient(entry.problem, entry.loss, "discrete_adjoint", cfg, checkpoints=4)
    assert res.gradient.tobytes() == plain.gradient.tobytes()


def test_tracer_sees_the_dense_adjoints_replay_checkpoint_segments():
    # a checkpointed dense adjoint replays a segment when a reverse read
    # first needs a state no snapshot holds, through the same generator as
    # the discrete adjoint, so the tracer counts those steps as replay
    tracing = _load_tracing()
    entry = sk.make_harmonic(0.2)
    cfg = sk.SolverConfig(abstol=1e-8, reltol=1e-8)
    for method in ("continuous_interpolating", "continuous_quadrature"):
        tracer = tracing.Tracer()
        try:
            tracer.install()
            res = sk.gradient(entry.problem, entry.loss, method, cfg, checkpoints=4)
        finally:
            tracer.uninstall()
        assert tracer.absent == []
        assert tracer.summary()["replay_steps"] > 0, method
        plain = sk.gradient(entry.problem, entry.loss, method, cfg, checkpoints=4)
        assert res.gradient.tobytes() == plain.gradient.tobytes()
