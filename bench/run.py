"""Gradient-latency benchmark of sensikit.

One single-threaded, closed-loop client sends seeded gradient requests
(problem, method, theta) through sensikit's public API and checks each
result against a reference gradient.  Requests come in rounds: one pool
parameter per round, every method once, in seeded order; a pass visits
every pool entry once.  The timed loop runs whole passes until
``--seconds`` have passed.

    python3 bench/run.py --workload lotka-volterra --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics.  Times are scaled to a
reference machine speed by the probe in ``speed.py``, measured between
requests; the unscaled wall-clock figures are printed too.  ``--trace 1``
runs the first rounds of a pass untraced and again traced, checks that
both give bitwise equal gradients and prints the per-layer metrics
(unscaled).  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit.  A report (and, when traced, the
spans) goes to ``bench/out/``.  Without sensikit's sources beside the
benchmark it exits with status 2.
"""

import os
import sys
import time

_STARTED = time.perf_counter()

# one BLAS/OpenMP thread: the client is single-threaded and so is the
# measurement; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
PROBE_EVERY_S = 0.25  # speed-probe cadence in the timed loop
TRACE_ROUNDS = 4  # rounds of the first pass in the traced run
EXIT_NO_PROGRAM = 2

# (workload, method) pairs whose gradients are known to be wrong at the
# workload's settings.  They stay in the mix and count as failed requests;
# only a failure outside this table makes the run incorrect.
KNOWN_WRONG = {
    ("lotka-volterra", "centered_fd"): "adaptive solve at tol 1e-8 gives ~213.63 at a = 1",
    ("lotka-volterra", "complex_step"): "adaptive solve at tol 1e-8 gives ~213.63 at a = 1",
    ("heat", "centered_fd"): "tol 1e-6 solver noise over eps 1e-6 swamps the difference",
    ("heat", "complex_step"): "tol-bound imaginary-part error exceeds 1e-3 at large theta",
    ("heat", "backsolve"): "reverse reconstruction drift: silent wrong value or blowup",
    ("diffusion-fit", "centered_fd"): "differences through the adaptive step sequence "
                                      "exceed 1e-3 where the gradient is small",
    ("diffusion-fit", "complex_step"): "differences through the adaptive step sequence "
                                       "exceed 1e-3 where the gradient is small",
    ("diffusion-fit", "backsolve"): "reverse reconstruction drift: silent wrong value",
}

CROSSOVER_P = (1, 4, 16)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="lotka-volterra, heat, diffusion-fit, or all (one process each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import sensikit from the sources beside the benchmark, never elsewhere."""
    if not (SRC / "sensikit" / "__init__.py").is_file():
        raise ImportError(f"sensikit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import sensikit

    if Path(sensikit.__file__).resolve().parent != SRC / "sensikit":
        raise ImportError(f"imported sensikit from {sensikit.__file__}, not {SRC}")
    return sensikit


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------
# requests


@dataclass
class Outcome:
    """One checked request; ``latency`` is wall-clock, ``scale`` its speed factor."""

    method: str
    index: int
    latency: float
    gradient: object
    rel_err: float
    error: object
    reported: int
    passed: bool
    unexpected: bool
    scale: float = 1.0


def run_request(wl, case, index, method):
    """Time one gradient request and check it against the reference."""
    theta = case.thetas[index]
    grad, reported, error = None, 0, None
    started = time.perf_counter()
    try:
        grad, reported = wl.gradient(method, case.problem, case.loss, theta, case.settings)
    except wl.SensikitError as err:
        error = type(err).__name__
    except Exception as err:  # a defect outside the library's error contract
        error = f"unexpected {type(err).__name__}"
        traceback.print_exc(file=sys.stderr)
    latency = time.perf_counter() - started
    rel = math.inf if grad is None else wl.rel_error(grad, case.references[index])
    passed = error is None and rel <= wl.CHECK_TOLERANCE
    unexpected = not passed and (
        (error or "").startswith("unexpected")
        or (case.workload, method) not in KNOWN_WRONG
    )
    return Outcome(method, index, latency, grad, rel, error, reported, passed, unexpected)


def passes(workload, rng, methods):
    """Endless passes over the pool; a pass is a list of ``(index, methods)`` rounds.

    Rounds follow ``workload.order``; each has one pool entry and every
    method once, in a fresh seeded order.
    """
    while True:
        yield [(index, [methods[m] for m in rng.permutation(len(methods))])
               for index in workload.order(rng)]


def set_up(wl, name, seed):
    """Build the workload's case and warm up every method once.

    The warm-up runs at the centre of the parameter range, so set-up work
    does not swing with the seed's draws.  Returns the case, the warm-up
    outcomes and the set-up's ``speed.Clock``, lapped after each step.
    """
    clock = speed.Clock()
    workload = wl.WORKLOADS[name]
    case = workload.build(np.random.default_rng([seed, 0]))
    mid = workload.midpoint(case.problem.p)
    centre = replace(case, thetas=[mid],
                     references=[workload.reference(case.problem, case.loss, mid)])
    clock.lap()
    warm = []
    for m in wl.METHODS:
        warm.append(run_request(wl, centre, 0, m))
        clock.lap()
    return case, warm, clock


# ---------------------------------------------------------------------
# metrics


def tail(latencies):
    """Highest nearest-rank percentile with at least 10 requests beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def end_to_end(outcomes, busy_s, setup_s, methods, scaled=True):
    """End-to-end metrics; ``scaled`` applies each request's speed factor."""
    lat_ms = [o.latency * 1e3 * (o.scale if scaled else 1.0) for o in outcomes]
    tail_ms, tail_pct, tail_n = tail(lat_ms)
    failed = sum(not o.passed for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "grads_per_s": (len(outcomes) / busy_s, "1/s"),
        "grad_ms_p50": (statistics.median(lat_ms), "ms"),
        "grad_ms_tail": (tail_ms, "ms"),
    }
    for m in methods:
        metrics[f"grad_ms.{m}"] = (
            statistics.median(x for x, o in zip(lat_ms, outcomes) if o.method == m), "ms"
        )
    metrics["fail_frac"] = (failed / len(outcomes), "1")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    notes = {"grad_ms_tail": f"p{tail_pct:.1f} of {tail_n} requests"}
    return metrics, notes


def rel_err_max(outcomes):
    """Worst norm-relative error among requests that passed the check."""
    passed = [o.rel_err for o in outcomes if o.passed]
    # with nothing passed the run is incorrect anyway; 1.0 keeps the JSON finite
    return max(passed) if passed else 1.0


def per_layer(summary, tracer, outcomes, overhead_s, methods):
    by = summary["by_name"]

    def calls(prefix):
        return sum(v["calls"] for k, v in by.items() if k == prefix or k.startswith(prefix + "["))

    def self_s(prefix):
        return sum(v["self_s"] for k, v in by.items() if k == prefix or k.startswith(prefix + "["))

    accepted, rejected = tracer.steps_accepted, tracer.steps_rejected
    unreported = {m: 0 for m in methods}
    for o, counted in outcomes:
        unreported[o.method] += counted - o.reported
    m = {
        "solver.rk_step.calls.float": (calls("solver.rk_step[float]"), "count"),
        "solver.rk_step.self_s.float": (self_s("solver.rk_step[float]"), "s"),
        "solver.scaled_error.self_s": (self_s("solver.scaled_error"), "s"),
        "solver.steps.accepted": (accepted, "count"),
        "solver.steps.rejected": (rejected, "count"),
        "solver.steps.accept_ratio": (accepted / max(accepted + rejected, 1), "1"),
        "solver.rk_step.calls.complex": (calls("solver.rk_step[complex]"), "count"),
        "solver.rk_step.self_s.complex": (self_s("solver.rk_step[complex]"), "s"),
        "solver.rk_step.calls.dual": (calls("solver.rk_step[dual]"), "count"),
        "solver.rk_step.self_s.dual": (self_s("solver.rk_step[dual]"), "s"),
        "problems.rhs.self_s.dual": (self_s("problems.rhs[dual]"), "s"),
        "dual.ops": (tracer.dual_ops, "count"),
        "dual.self_s": (summary["dual_s"], "s"),
        "adjoint.step_vjp.calls": (calls("adjoint.step_vjp"), "count"),
        "adjoint.step_vjp.self_s": (self_s("adjoint.step_vjp"), "s"),
        "sensitivity.jacobian_assembly.calls": (calls("sensitivity.jacobian_assembly"), "count"),
        "sensitivity.jacobian_assembly.self_s": (self_s("sensitivity.jacobian_assembly"), "s"),
        "problems.jac.calls": (calls("problems.jac"), "count"),
        "problems.jac.self_s": (self_s("problems.jac"), "s"),
        "adjoint.adjoint_rhs.self_s": (self_s("adjoint.adjoint_rhs"), "s"),
        "solver.dense_eval.calls": (calls("solver.dense_eval"), "count"),
        "solver.dense_eval.self_s": (self_s("solver.dense_eval"), "s"),
        "core.loss_eval.self_s": (self_s("core.loss_eval"), "s"),
        "adjoint.gauss_legendre.calls": (calls("adjoint.gauss_legendre"), "count"),
        "adjoint.gauss_legendre.self_s": (self_s("adjoint.gauss_legendre"), "s"),
        "adjoint.replay.steps": (summary["replay_steps"], "count"),
        "adjoint.replay.self_s": (self_s("adjoint.replay"), "s"),
        "adjoint.stored_states.max": (tracer.stored_states_max, "count"),
        "direct.loss_fn.calls": (tracer.loss_fn_calls, "count"),
    }
    for phase, seconds in summary["phases"].items():
        m[f"phase.{phase}_s"] = (seconds, "s")
    for kind in ("float", "complex", "dual"):
        m[f"problems.rhs.calls.{kind}"] = (calls(f"problems.rhs[{kind}]"), "count")
    m["problems.rhs.unreported"] = (sum(unreported.values()), "count")
    for meth in methods:
        m[f"problems.rhs.unreported.{meth}"] = (unreported[meth], "count")
    m["rel_err_max"] = (rel_err_max(o for o, _ in outcomes), "1")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


# ---------------------------------------------------------------------
# runs


def timed_run(wl, case, args):
    """Whole passes until ``--seconds`` pass; returns outcomes and the run's clock.

    Whole passes keep every pool entry equally weighted, so the mix does
    not depend on where the time ran out.  The clock laps between requests
    once ``PROBE_EVERY_S`` has passed since the last lap; the requests in
    between take that lap's speed factor.
    """
    rng = np.random.default_rng([args.seed, 1])
    outcomes, pending = [], []
    clock = speed.Clock()
    for rounds in passes(wl.WORKLOADS[case.workload], rng, wl.METHODS):
        for index, methods in rounds:
            for m in methods:
                pending.append(run_request(wl, case, index, m))
                if clock.since_lap() >= PROBE_EVERY_S:
                    factor = clock.lap()
                    for o in pending:
                        o.scale = factor
                    outcomes += pending
                    pending = []
        if clock.raw + clock.since_lap() >= args.seconds:
            break
    factor = clock.lap()
    for o in pending:
        o.scale = factor
    return outcomes + pending, clock


def traced_run(wl, tracing, case, args):
    """The first rounds of a pass, untraced then traced; returns metrics and checks."""
    rng = np.random.default_rng([args.seed, 1])
    first = next(passes(wl.WORKLOADS[case.workload], rng, wl.METHODS))
    plan = [(index, m) for index, methods in first[:TRACE_ROUNDS] for m in methods]

    # both passes lap the clock after every request, so that the overhead
    # is taken at reference speed and machine-speed swings do not read as
    # tracing cost
    clock = speed.Clock()
    plain = []
    for i, m in plan:
        plain.append(run_request(wl, case, i, m))
        clock.lap()
    plain_raw, plain_scaled = clock.raw, clock.scaled

    tracer = tracing.Tracer()
    traced_case = wl.instrument(case, tracer.callback)
    tracer.install()
    traced = []
    try:
        clock.lap()  # installing the wrappers is not tracing overhead
        base_raw, base_scaled = clock.raw, clock.scaled
        for rid, (i, m) in enumerate(plan):
            before = tracer.callback_calls
            sid = tracer.begin_request(rid, m)
            try:
                o = run_request(wl, traced_case, i, m)
            finally:
                tracer.close(sid)
            traced.append((o, tracer.callback_calls - before))
            clock.lap()
    finally:
        tracer.uninstall()
    traced_raw = clock.raw - base_raw
    overhead_s = (clock.scaled - base_scaled) - plain_scaled

    bitwise = all(
        a.error == b.error
        and ((a.gradient is None and b.gradient is None)
             or (a.gradient is not None and b.gradient is not None
                 and np.array_equal(a.gradient, b.gradient)))
        for a, (b, _) in zip(plain, traced)
    )
    summary = tracer.summary()
    metrics = per_layer(summary, tracer, traced, overhead_s, wl.METHODS)
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{case.workload}-seed{args.seed}.npz", **tracer.arrays())
    info = {
        "bitwise_equal": bitwise,
        "untraced_s": plain_raw,
        "traced_s": traced_raw,
        "spans": summary["spans"],
        "absent_layers": tracer.absent,
    }
    return metrics, plain, bitwise, info


def crossover(wl, args):
    """Per-method gradient time on diffusion-fit as the parameter count grows."""
    table = {}
    for p in CROSSOVER_P:
        rng = np.random.default_rng([args.seed, 2, p])
        problem, loss = wl.diffusion_fit_problem(rng, p)
        workload = wl.WORKLOADS["diffusion-fit"]
        theta = wl.stratified(rng, *workload.bounds, 1, dim=p)[0]
        case = wl.Case(workload.name, problem, loss, workload.settings, [theta],
                       [workload.reference(problem, loss, theta)])
        row = {}
        for m in wl.METHODS:
            o = run_request(wl, case, 0, m)
            row[m] = {"ms": o.latency * 1e3, "rel_err": None if o.error else o.rel_err,
                      "error": o.error}
        table[p] = row
    return table


def print_metrics(metrics, notes, prefix=""):
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{prefix}{name:<{width}}  {value:>14.6g} {unit}{note}")


def run_all(args, names):
    """Run every workload in its own process, one after another."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    try:
        sensikit = import_program()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import tracing
    import workloads as wl

    if args.workload == "all":
        return run_all(args, list(wl.WORKLOADS))
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    warnings.simplefilter("ignore", RuntimeWarning)  # overflow inside diverging backsolves
    import_s = time.perf_counter() - _STARTED

    env = environment()
    print(f"# sensikit {sensikit.__version__} gradient-latency benchmark: workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))

    import_scaled = import_s * speed.REFERENCE_S / speed.probe()
    setups, setups_scaled = [], []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        case, warm, clock = set_up(wl, args.workload, args.seed)
        setups.append(clock.raw)
        setups_scaled.append(clock.scaled)
    unexpected = [o for o in warm if o.unexpected]

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "settings": vars(case.settings),
              "pool": [list(map(float, th)) for th in case.thetas]}
    if args.trace:
        metrics, outcomes, bitwise, info = traced_run(wl, tracing, case, args)
        report["traced"] = info
        notes = {}
        print(f"# traced {len(outcomes)} requests: spans={info['spans']} "
              f"bitwise_equal={bitwise} untraced={info['untraced_s']:.3f}s "
              f"traced={info['traced_s']:.3f}s")
        print("# absent layers: " + (", ".join(info["absent_layers"]) or "none"))
        if args.workload == "diffusion-fit":
            report["crossover"] = table = crossover(wl, args)
            print("# crossover on diffusion-fit, ms per gradient (rel_err):")
            print("#   p  " + " ".join(f"{m:>21s}" for m in wl.METHODS))
            for p, row in table.items():
                print(f"# {p:3d}  " + " ".join(
                    f"{r['ms']:>10.1f} ({'raised' if r['error'] else format(r['rel_err'], '8.1e')})"
                    for r in row.values()))
    else:
        outcomes, clock = timed_run(wl, case, args)
        metrics, notes = end_to_end(outcomes, clock.scaled,
                                    import_scaled + statistics.median(setups_scaled), wl.METHODS)
        raw, _ = end_to_end(outcomes, clock.raw, import_s + statistics.median(setups), wl.METHODS,
                            scaled=False)
        bitwise = True
        factors = [o.scale for o in outcomes]
        notes["setup_s"] = f"median of {SETUP_REPEATS} set-ups"
        print(f"# speed factor (reference / probe): median {statistics.median(factors):.3f}, "
              f"range {min(factors):.3f}..{max(factors):.3f}; rel_err_max "
              f"{rel_err_max(outcomes):.3e}")
        print("# unscaled wall-clock figures:")
        print_metrics(raw, {}, prefix="#   ")
        report.update(setup_repeats_s=setups, import_s=import_s, busy_s=clock.raw,
                      raw_metrics={k: {"value": v, "unit": u} for k, (v, u) in raw.items()})
    unexpected += [o for o in outcomes if o.unexpected]

    print("# per method: requests, failed, worst rel_err among passed, errors raised")
    for m in wl.METHODS:
        mine = [o for o in outcomes if o.method == m]
        errs = sorted({o.error for o in mine if o.error})
        good = [o.rel_err for o in mine if o.passed]
        known = KNOWN_WRONG.get((args.workload, m))
        known = f" (known wrong: {known})" if known else ""
        print(f"#   {m:20s} {len(mine):4d} {sum(not o.passed for o in mine):4d} "
              f"{max(good) if good else float('nan'):10.3e} {','.join(errs) or '-'}{known}")
    for o in unexpected:
        where = "warm-up" if o in warm else f"pool[{o.index}]"
        print(f"# UNEXPECTED failure: {o.method} {where} rel_err={o.rel_err:.3e} "
              f"error={o.error}", file=sys.stderr)
    print_metrics(metrics, notes)

    correct = not unexpected and bitwise
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["requests"] = [
        {"method": o.method, "pool": o.index, "ms": o.latency * 1e3, "scale": o.scale,
         "rel_err": o.rel_err if math.isfinite(o.rel_err) else None, "error": o.error}
        for o in outcomes
    ]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(not o.passed for o in outcomes),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
