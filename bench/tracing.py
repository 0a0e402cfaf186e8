"""Outside-in tracing of sensikit's layers for the gradient-latency benchmark.

The tracer rebinds functions at run time: a target is named by module and
attribute (``sensikit.solver.rk_step``) and every loaded sensikit module
holding that same function object gets the wrapper, so calls through
``from .solver import rk_step`` are seen too.  A target that no longer
exists is reported as an absent layer.  Dual-number operators are
wrapped on their classes and counted, with their time charged to the
enclosing span; user callbacks are wrapped on the problem by the
benchmark.  Nothing inside the package changes and wrappers only pass
arguments and results through, so the numerics are untouched.

Spans (name, start, end, parent, request) are kept in flat arrays and
written once at the end.  A span's self time is its duration minus the
time its child spans and dual operators cover.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name); the kind-split spans carry the scalar
# kind of their state argument in the name, e.g. "solver.rk_step[dual]"
FUNCTION_TARGETS = (
    ("sensikit.solver", "solve", "solver.solve"),
    ("sensikit.solver", "rk_step", "solver.rk_step"),
    ("sensikit.solver", "scaled_error", "solver.scaled_error"),
    ("sensikit.solver", "dense_eval", "solver.dense_eval"),
    ("sensikit.core", "loss_eval", "core.loss_eval"),
    ("sensikit.sensitivity", "jacobian_assembly", "sensitivity.jacobian_assembly"),
    ("sensikit.adjoint", "step_vjp", "adjoint.step_vjp"),
    ("sensikit.adjoint", "adjoint_rhs", "adjoint.adjoint_rhs"),
    ("sensikit.adjoint", "gauss_legendre", "adjoint.gauss_legendre"),
    ("sensikit.adjoint", "_forward_pass", "adjoint.forward_pass"),
    ("sensikit.adjoint", "_integrate_costate_interval", "adjoint.costate_interval"),
    ("sensikit.adjoint", "_backsolve", "adjoint.backsolve"),
)
KIND_SPLIT = {"solver.rk_step": 2}  # span name -> index of the state argument
REPLAY_TARGET = ("sensikit.adjoint", "_segments_reverse")
LOSS_FN_TARGET = ("sensikit.direct", "solver_loss_fn")
DUAL_CLASSES = ("MultiDual", "DualScalar")
DUAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__pow__", "__abs__",
    "sin", "cos", "exp", "log", "sqrt",
)

# phase of the ROADMAP split entered at a span; other spans inherit their
# parent's.  Solves are forward unless they run inside a reverse pass.
PHASE_OF = {
    "adjoint.forward_pass": "forward_solve",
    "adjoint.replay": "replay",
    "adjoint.costate_interval": "reverse_solve",
    "adjoint.backsolve": "backsolve",
    "sensitivity.jacobian_assembly": "jac_vjp",
    "adjoint.step_vjp": "jac_vjp",
    "adjoint.adjoint_rhs": "jac_vjp",
    "solver.dense_eval": "dense_output",
    "adjoint.gauss_legendre": "quadrature",
}
PHASES = ("forward_solve", "replay", "reverse_solve", "jac_vjp", "dense_output", "quadrature")
KINDS = ("float", "complex", "dual")


def scalar_kind(*values) -> str:
    """``dual``, ``complex`` or ``float``: the richest scalar among ``values``."""
    kind = 0
    for v in values:
        dtype = getattr(v, "dtype", None)
        if dtype is None:
            dtype = np.asarray(v).dtype
        if dtype == object:
            return "dual"
        if dtype.kind == "c":
            kind = 1
    return KINDS[kind]


class Tracer:
    """Span recorder plus the run-time patches that feed it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.dual_s = array("d")
        self._stack: list = []
        self._request = -1
        self._dual_depth = 0
        self.dual_ops = 0
        self.callback_calls = 0
        self.steps_accepted = 0
        self.steps_rejected = 0
        self.loss_fn_calls = 0
        self.stored_states_max = 0
        self.absent: list = []
        self._patches: list = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._name_id(name))
        self.request.append(self._request)
        self.dual_s.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def begin_request(self, rid, method):
        self._request = rid
        return self.open(f"request.{method}")

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, state_arg=None):
        tracer = self

        if state_arg is None:
            def traced(*args, **kwargs):
                sid = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
        else:
            def traced(*args, **kwargs):
                kind = scalar_kind(*args[state_arg:state_arg + 2])
                sid = tracer.open(f"{name}[{kind}]")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
        return traced

    def _solve_wrapper(self, fn):
        traced = self._span_wrapper("solver.solve", fn)
        tracer = self

        def solve(*args, **kwargs):
            sol = traced(*args, **kwargs)
            tracer.steps_accepted += sol.stats.accepted_steps
            tracer.steps_rejected += sol.stats.rejected_steps
            return sol
        return solve

    def _replay_wrapper(self, fn):
        tracer = self

        def segments(problem, sol, *args, **kwargs):
            gen = fn(problem, sol, *args, **kwargs)
            store = getattr(sol, "checkpoints", None)
            if getattr(sol, "node_states", None) is not None or store is None:
                yield from gen  # full storage: nothing is recomputed
                return
            while True:
                sid = tracer.open("adjoint.replay")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                tracer.stored_states_max = max(
                    tracer.stored_states_max, len(item[2]) + len(store)
                )
                yield item
        return segments

    def _loss_fn_wrapper(self, fn):
        tracer = self

        def solver_loss_fn(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def loss_fn(theta):
                tracer.loss_fn_calls += 1
                return inner(theta)

            loss_fn.stats = inner.stats
            return loss_fn
        return solver_loss_fn

    def callback(self, kind, fn):
        """Wrapper for a user callback of the problem (``rhs`` or ``jac``)."""
        name = "problems.rhs" if kind == "rhs" else "problems.jac"
        traced = self._span_wrapper(name, fn, state_arg=0)
        tracer = self

        def counted(u, theta, t):
            tracer.callback_calls += 1
            return traced(u, theta, t)
        return counted

    def _dual_wrapper(self, op):
        tracer = self

        def traced(*args):
            tracer.dual_ops += 1
            if tracer._dual_depth:
                return op(*args)
            tracer._dual_depth = 1
            t0 = perf_counter()
            try:
                return op(*args)
            finally:
                dt = perf_counter() - t0
                tracer._dual_depth = 0
                if tracer._stack:
                    tracer.dual_s[tracer._stack[-1]] += dt
        return traced

    # -- patching ------------------------------------------------------

    def _target(self, module, attr):
        mod = sys.modules.get(module)
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is None:
            self.absent.append(f"{module}.{attr}")
        return fn

    def _rebind(self, target, wrapped):
        """Replace ``target`` by ``wrapped`` in every loaded sensikit module."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sensikit" or modname.startswith("sensikit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, target))

    def install(self):
        for module, attr, name in FUNCTION_TARGETS:
            fn = self._target(module, attr)
            if fn is None:
                continue
            if name == "solver.solve":
                wrapped = self._solve_wrapper(fn)
            else:
                wrapped = self._span_wrapper(name, fn, KIND_SPLIT.get(name))
            self._rebind(fn, wrapped)
        fn = self._target(*REPLAY_TARGET)
        if fn is not None:
            self._rebind(fn, self._replay_wrapper(fn))
        fn = self._target(*LOSS_FN_TARGET)
        if fn is not None:
            self._rebind(fn, self._loss_fn_wrapper(fn))
        dual = sys.modules.get("sensikit.dual")
        for cls_name in DUAL_CLASSES:
            cls = getattr(dual, cls_name, None)
            if cls is None:
                self.absent.append(f"sensikit.dual.{cls_name}")
                continue
            for op in DUAL_OPS:
                orig = cls.__dict__.get(op)
                if orig is not None:
                    setattr(cls, op, self._dual_wrapper(orig))
                    self._patches.append((cls, op, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- derived figures -------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "request": np.array(self.request, dtype=np.int64),
            "dual_s": np.array(self.dual_s, dtype=float),
        }

    def summary(self) -> dict:
        """Per-span-name call counts and self times, plus phase totals."""
        a = self.arrays()
        count = len(a["start"])
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                            minlength=count)
        self_s = duration - child - a["dual_s"]
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_by_name = np.bincount(a["name"], weights=self_s, minlength=k)
        by_name = {
            self.names[i]: {"calls": int(calls[i]), "self_s": float(self_by_name[i])}
            for i in range(k)
        }
        # phases: each span charges its self time and its dual-operator
        # time to the phase it runs in
        phase_of_name = []
        for name in self.names:
            base = name.split("[", 1)[0]
            phase_of_name.append(PHASE_OF.get(base, "solve" if base == "solver.solve" else None))
        span_phase = [None] * count
        names = a["name"].tolist()
        parents = a["parent"].tolist()
        phase_totals = dict.fromkeys(PHASES, 0.0)
        charged = (self_s + a["dual_s"]).tolist()
        for sid in range(count):
            par = parents[sid]
            ctx = span_phase[par] if par >= 0 else None
            own = phase_of_name[names[sid]]
            if own == "solve":
                own = "reverse_solve" if ctx in ("reverse_solve", "backsolve") else (
                    ctx if ctx in ("forward_solve", "replay") else "forward_solve")
            phase = own or ctx
            span_phase[sid] = phase
            if phase == "backsolve":
                continue  # bookkeeping inside _backsolve outside its solves
            if phase is not None:
                phase_totals[phase] += charged[sid]
        replay = self._name_ids.get("adjoint.replay", -1)
        in_replay = has_parent & (a["name"][np.maximum(a["parent"], 0)] == replay)
        is_step = np.isin(a["name"], [i for i, n in enumerate(self.names)
                                      if n.startswith("solver.rk_step[")])
        return {"by_name": by_name, "phases": phase_totals,
                "dual_s": float(a["dual_s"].sum()), "spans": count,
                "replay_steps": int(np.sum(in_replay & is_step))}
