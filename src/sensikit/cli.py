"""Benchmark command line: sweeps, cross-validation, and a fit demo.

Subcommands reproduce the standard verification experiments as CSV
artifacts: ``sweep-direct`` scans the direct methods over a stepsize grid
against analytic references, ``compare-adjoints`` tabulates every
solver-based gradient method, ``gradcheck`` pass/fails each method against
centered finite differences, and ``fit`` runs plain gradient descent on
self-generated data.  Plotting stays out of process; every command emits
deterministic CSV.
"""

from __future__ import annotations

import argparse
import configparser
import io
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import SquaredErrorLoss, loss_eval
from .direct import complexstep_gradient, default_epsilon, fd_gradient, gradient
from .dual import seed, tangents, value
from .errors import DivergenceError, SensikitError
from .problems import CATALOG, make_problem
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_GRADCHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEP_HEADER = "method,epsilon,gradient,abs_rel_error,rhs_evaluations"
COMPARE_HEADER = (
    "method,gradient,abs_rel_error,rhs_evaluations,peak_stored_states,status,"
    "jacobian_evaluations"
)
FIT_HEADER = "iteration,theta,loss,grad_norm"

ADJOINT_METHODS = (
    "forward_sensitivity",
    "discrete_adjoint",
    "continuous_backsolve",
    "continuous_interpolating",
    "continuous_quadrature",
)


@dataclass
class RunConfig:
    """Resolved settings for one CLI invocation."""

    command: str
    problem: str = "harmonic"
    theta: Optional[float] = None
    heat_n: int = 64
    eps_min: float = 1e-15
    eps_max: float = 1e-1
    eps_count: int = 29
    abstol: float = 1e-12
    reltol: float = 1e-12
    dt: float = 1e-3
    tolerances: tuple = (1e-6, 1e-12)
    methods: Optional[tuple] = None
    out: Optional[str] = None
    alpha: float = 1e-3
    max_iters: int = 5000
    gtol: float = 1e-6
    theta_init: float = 0.2
    theta_star: float = 0.3
    grad_method: str = "forward_sensitivity"
    include_primal_only: bool = False
    quadrature_order: int = 7
    checkpoints: Optional[int] = None

    def __post_init__(self):
        if not self.eps_min < self.eps_max:
            raise ValueError("epsilon grid needs eps_min < eps_max")
        if self.eps_count < 2:
            raise ValueError("epsilon grid needs at least 2 points")
        if self.abstol <= 0 or self.reltol <= 0:
            raise ValueError("tolerances must be positive")

    def epsilon_grid(self) -> np.ndarray:
        return 10.0 ** np.linspace(
            np.log10(self.eps_min), np.log10(self.eps_max), self.eps_count
        )

    def make_entry(self):
        kwargs = {}
        if self.theta is not None:
            key = "a" if self.problem == "predprey" else "theta"
            kwargs[key] = self.theta
        if self.problem == "heat1d":
            kwargs["n_cells"] = self.heat_n
        return make_problem(self.problem, **kwargs)

    def solver_config(self, **overrides) -> SolverConfig:
        base = dict(method="dopri5", abstol=self.abstol, reltol=self.reltol)
        base.update(overrides)
        return SolverConfig(**base)


def fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_rows(path, header, rows):
    text = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def _rel_error(g, ref):
    g = np.atleast_1d(np.asarray(g, dtype=float))
    ref = np.atleast_1d(np.asarray(ref, dtype=float))
    scale = np.linalg.norm(ref)
    if scale == 0:
        return float(np.linalg.norm(g - ref))
    return float(np.linalg.norm(g - ref) / scale)


# ---------------------------------------------------------------------
# problem/loss config-file round trip


def problem_to_config(entry) -> str:
    """Serialize a catalog entry to the flat key-value config format."""
    buf = io.StringIO()
    buf.write("[problem]\n")
    buf.write(f"id = {entry.id}\n")
    for key, val in entry.params.items():
        if isinstance(val, float):
            buf.write(f"{key} = {fmt(val)}\n")
        else:
            buf.write(f"{key} = {val}\n")
    return buf.getvalue()


def problem_from_config(text):
    """Rebuild a catalog entry from its config serialization."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(text)
    if "problem" not in parser:
        raise ValueError("config text lacks a [problem] section")
    section = dict(parser["problem"])
    problem_id = section.pop("id", None)
    if problem_id not in CATALOG:
        raise ValueError(f"unknown problem id {problem_id!r}")
    kwargs = {}
    for key, raw in section.items():
        kwargs[key] = int(raw) if key in ("n_cells",) else float(raw)
    return make_problem(problem_id, **kwargs)


# ---------------------------------------------------------------------
# sweep-direct


def _analytic_loss_fn(entry):
    """Closed-form parameter-to-loss map, generic over the scalar kind."""
    if entry.id == "harmonic":
        t1 = entry.params["t1"]

        def fn(th):
            return np.sin(th[0] * t1) / th[0]

        return fn
    if entry.id == "heat1d":
        t1 = entry.params["t1"]
        # center-node value of the separable solution
        pi2t = np.pi * np.pi * t1

        def fn(th):
            return np.exp(-pi2t * th[0])

        return fn
    return None


def cmd_sweep_direct(config: RunConfig) -> int:
    entry = config.make_entry()
    if entry.analytic_gradient is None:
        raise ValueError(
            f"problem {entry.id!r} has no analytic gradient reference; "
            f"sweep-direct is unsupported for it"
        )
    ref = entry.analytic_gradient()[0]
    analytic_fn = _analytic_loss_fn(entry)
    theta = entry.problem.theta
    grid = config.epsilon_grid()
    rows = []

    def add(method, epsilon, gradient, evals):
        rows.append(
            (method, fmt(epsilon), fmt(gradient), fmt(abs(gradient - ref) / abs(ref)), str(evals))
        )

    # analytic-map mode: differentiate the closed form itself
    for eps in grid:
        add("forward_fd/analytic", eps,
            fd_gradient(lambda th: value(analytic_fn(th)), theta, eps, scheme="forward")[0], 0)
        add("centered_fd/analytic", eps,
            fd_gradient(lambda th: value(analytic_fn(th)), theta, eps, scheme="centered")[0], 0)
        add("complex_step/analytic", eps,
            complexstep_gradient(analytic_fn, theta, eps)[0], 0)
    add("forward_ad/analytic", 0.0, tangents(analytic_fn(seed(theta)), theta.size)[0], 0)

    # solver mode at each configured tolerance
    for tol in config.tolerances:
        tag = f"solver-{tol:g}"
        cfg = config.solver_config(abstol=tol, reltol=tol)
        for eps in grid:
            for method in ("forward_fd", "centered_fd", "complex_step"):
                res = gradient(entry.problem, entry.loss, method, cfg, epsilon=eps)
                add(f"{method}/{tag}", eps, res.gradient[0], res.stats.rhs_evaluations)
        res = gradient(entry.problem, entry.loss, "forward_ad", cfg)
        add(f"forward_ad/{tag}", 0.0, res.gradient[0], res.stats.rhs_evaluations)

    _write_rows(config.out, SWEEP_HEADER, rows)
    return EXIT_OK


# ---------------------------------------------------------------------
# compare-adjoints


def _solver_gradient(method, entry, config: RunConfig, epsilon=None):
    """``gradient`` of a catalog entry under the command's solver settings.

    The discrete adjoint runs fixed-step RK4 at ``--dt``, with a warning
    when that step violates the problem's explicit stability bound.
    """
    solver_cfg = config.solver_config()
    if method == "discrete_adjoint":
        if entry.cfl_dt is not None and config.dt > entry.cfl_dt:
            print(
                f"warning: dt={config.dt:g} violates the explicit stability bound "
                f"dt <= {entry.cfl_dt:g} for {entry.id}",
                file=sys.stderr,
            )
        solver_cfg = SolverConfig(method="rk4", dt=config.dt)
    return gradient(
        entry.problem, entry.loss, method, solver_cfg,
        epsilon=epsilon,
        checkpoints=config.checkpoints,
        quadrature_order=config.quadrature_order,
    )


def _reference_gradient(entry, config: RunConfig):
    if entry.analytic_gradient is not None:
        return np.asarray(entry.analytic_gradient(), dtype=float)
    return _solver_gradient("centered_fd", entry, config).gradient


def cmd_compare_adjoints(config: RunConfig) -> int:
    entry = config.make_entry()
    ref = _reference_gradient(entry, config)
    methods = config.methods or ADJOINT_METHODS
    rows = []
    for method in methods:
        try:
            res = _solver_gradient(method, entry, config)
        except SensikitError as err:
            rows.append((method, "nan", "nan", "0", "0", f"blowup: {type(err).__name__}", "0"))
            continue
        grad = res.gradient
        rows.append(
            (
                method,
                ";".join(fmt(g) for g in grad),
                fmt(_rel_error(grad, ref)),
                str(res.stats.rhs_evaluations),
                str(res.peak_stored_states or 0),
                "ok",
                str(res.stats.jacobian_evaluations),
            )
        )
    _write_rows(config.out, COMPARE_HEADER, rows)
    return EXIT_OK


# ---------------------------------------------------------------------
# gradcheck


GRADCHECK_METHODS = (
    "forward_fd",
    "complex_step",
    "forward_ad",
    "forward_sensitivity",
    "discrete_adjoint",
    "continuous_backsolve",
    "continuous_interpolating",
    "continuous_quadrature",
)

GRADCHECK_TOLERANCE = 1e-3


def cmd_gradcheck(config: RunConfig, entries=None) -> int:
    """Compare every applicable method against centered finite differences.

    Prints one PASS/FAIL line per (problem, method); a method that raises a
    numerical failure (such as an unstable backsolve) is reported and
    skipped rather than failed.  Exits
    nonzero when any accuracy comparison fails.
    """
    if entries is None:
        if config.problem == "all":
            entries = [replace(config, problem=pid).make_entry() for pid in sorted(CATALOG)]
        else:
            entries = [config.make_entry()]
    methods = config.methods or GRADCHECK_METHODS
    if config.include_primal_only:
        methods = tuple(methods) + ("forward_ad_primal_only",)
    failures = 0
    lines = []
    for entry in entries:
        if entry.problem.p == 0:
            continue
        # every method gets the FD-sized eps.  Complex step is as accurate
        # through the solver at its 1e-12 default; the FD-sized eps keeps
        # its truncation error (order eps^2) far below the gate and matches
        # the complex-step requests of bench/workloads.py.
        eps = default_epsilon("centered_fd", entry.problem.theta)
        ref = _solver_gradient("centered_fd", entry, config, epsilon=eps).gradient
        for method in methods:
            try:
                grad = _solver_gradient(method, entry, config, epsilon=eps).gradient
            except SensikitError as err:
                lines.append(
                    f"SKIP  {entry.id:10s} {method:28s} "
                    f"(inapplicable: {type(err).__name__})"
                )
                continue
            err_rel = _rel_error(grad, ref)
            ok = err_rel <= GRADCHECK_TOLERANCE
            failures += 0 if ok else 1
            lines.append(
                f"{'PASS' if ok else 'FAIL'}  {entry.id:10s} {method:28s} "
                f"rel_err={err_rel:.3e}"
            )
    report = "\n".join(lines) + ("\n" if lines else "")
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    sys.stdout.write(report)
    return EXIT_OK if failures == 0 else EXIT_GRADCHECK_FAILED


# ---------------------------------------------------------------------
# fit


def synthetic_harmonic_fit(config: RunConfig):
    """Observation data generated from the target parameter value.

    Sampling the model at the true parameter makes that parameter the
    global minimizer of the squared error, so gradient descent should
    recover it.  Weights are scaled by the observation count to keep the
    curvature, and therefore the stable stepsize range, grid-independent.
    """
    entry = make_problem("harmonic", theta=config.theta_star)
    times = np.round(np.arange(0.5, entry.params["t1"] + 0.25, 0.5), 12)
    cfg = SolverConfig(method="dopri5", abstol=1e-10, reltol=1e-10, saveat=times)
    sol = solve(entry.problem, cfg)
    weights = np.full(len(times), 1.0 / len(times))
    loss = SquaredErrorLoss(times, sol.states, weights)
    return entry.problem.with_theta(np.array([config.theta_init])), loss


def cmd_fit(config: RunConfig) -> int:
    """Fixed-stepsize gradient descent with a selectable gradient method."""
    if config.problem != "harmonic":
        raise ValueError("the fit demo is wired to the harmonic problem")
    problem, loss = synthetic_harmonic_fit(config)
    solver_cfg = config.solver_config()
    theta = np.array([config.theta_init])
    rows = []
    worse = 0
    prev_loss = None
    for iteration in range(config.max_iters + 1):
        res = gradient(problem, loss, config.grad_method, solver_cfg, theta=theta)
        sol = solve(problem, solver_cfg, theta=theta)
        loss_value = loss_eval(sol, loss)
        grad_norm = float(np.linalg.norm(res.gradient))
        rows.append(
            (
                str(iteration),
                ";".join(fmt(t) for t in theta),
                fmt(loss_value),
                fmt(grad_norm),
            )
        )
        if prev_loss is not None and loss_value > prev_loss:
            worse += 1
            if worse >= 10:
                _write_rows(config.out, FIT_HEADER, rows)
                raise DivergenceError(
                    f"loss increased for {worse} consecutive iterations"
                )
        else:
            worse = 0
        prev_loss = loss_value
        if grad_norm <= config.gtol or iteration == config.max_iters:
            break
        theta = theta - config.alpha * res.gradient
    _write_rows(config.out, FIT_HEADER, rows)
    return EXIT_OK


# ---------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensikit",
        description="gradient-method benchmarks over the built-in ODE problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommand_parsers = {}

    def common(p):
        p.add_argument("--problem", default="harmonic",
                       help="problem id (or 'all' for gradcheck)")
        p.add_argument("--theta", type=float, default=None,
                       help="override the problem parameter")
        p.add_argument("--heat-n", type=int, default=64, dest="heat_n")
        p.add_argument("--abstol", type=float, default=1e-12)
        p.add_argument("--reltol", type=float, default=1e-12)
        p.add_argument("--dt", type=float, default=1e-3,
                       help="fixed stepsize for the discrete adjoint forward pass")
        p.add_argument("--method", dest="methods", default=None,
                       help="comma-separated method list")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--checkpoints", type=int, default=None)
        p.add_argument("--quadrature-order", type=int, default=7,
                       dest="quadrature_order")

    p_sweep = sub.add_parser("sweep-direct", help="direct-method error sweep")
    parser.subcommand_parsers["sweep-direct"] = p_sweep
    common(p_sweep)
    p_sweep.add_argument("--eps-min", type=float, default=1e-15, dest="eps_min")
    p_sweep.add_argument("--eps-max", type=float, default=1e-1, dest="eps_max")
    p_sweep.add_argument("--eps-count", type=int, default=29, dest="eps_count")
    p_sweep.add_argument("--tolerances", type=float, nargs="+",
                         default=[1e-6, 1e-12],
                         help="solver-mode tolerance panels")

    p_cmp = sub.add_parser("compare-adjoints", help="solver-based method table")
    parser.subcommand_parsers["compare-adjoints"] = p_cmp
    common(p_cmp)

    p_chk = sub.add_parser("gradcheck", help="pass/fail vs centered differences")
    parser.subcommand_parsers["gradcheck"] = p_chk
    common(p_chk)
    p_chk.add_argument("--include-primal-only", action="store_true",
                       dest="include_primal_only",
                       help="also run forward AD with the primal-only norm "
                            "(reproduces its known failure)")

    p_fit = sub.add_parser("fit", help="gradient-descent recovery demo")
    parser.subcommand_parsers["fit"] = p_fit
    common(p_fit)
    p_fit.add_argument("--alpha", type=float, default=1e-3)
    p_fit.add_argument("--max-iters", type=int, default=5000, dest="max_iters")
    p_fit.add_argument("--gtol", type=float, default=1e-6)
    p_fit.add_argument("--theta-init", type=float, default=0.2, dest="theta_init")
    p_fit.add_argument("--theta-star", type=float, default=0.3, dest="theta_star")
    p_fit.add_argument("--grad-method", default="forward_sensitivity",
                       dest="grad_method")
    return parser


_CONFIG_CASTS = {
    "theta": float, "heat_n": int, "eps_min": float, "eps_max": float,
    "eps_count": int, "abstol": float, "reltol": float, "dt": float,
    "alpha": float, "max_iters": int, "gtol": float,
    "theta_init": float, "theta_star": float, "include_primal_only":
    lambda s: s.lower() in ("1", "true", "yes"), "checkpoints": int,
    "quadrature_order": int,
    "tolerances": lambda s: tuple(float(x) for x in s.replace(",", " ").split()),
}


def _load_config_file(path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_string(fh.read())
    merged = {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            key = key.replace("-", "_")
            cast = _CONFIG_CASTS.get(key, str)
            merged[key] = cast(raw)
    return merged


def _namespace_to_runconfig(ns) -> RunConfig:
    methods = ns.methods
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    fields = {k: v for k, v in vars(ns).items() if k not in ("config",)}
    fields["methods"] = methods
    if "tolerances" in fields and fields["tolerances"] is not None:
        fields["tolerances"] = tuple(fields["tolerances"])
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    fields = {k: v for k, v in fields.items() if k in known}
    return RunConfig(**fields)


def main(argv=None) -> int:
    parser = _build_parser()
    args, _ = parser.parse_known_args(argv)
    if getattr(args, "config", None):
        try:
            file_values = _load_config_file(args.config)
        except (OSError, configparser.Error, ValueError) as err:
            print(f"error: bad config file: {err}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        # file values become defaults everywhere; explicit flags still win
        parser.set_defaults(**file_values)
        for sub_parser in parser.subcommand_parsers.values():
            known = {a.dest for a in sub_parser._actions}
            sub_parser.set_defaults(**{k: v for k, v in file_values.items() if k in known})
    args = parser.parse_args(argv)

    handlers = {
        "sweep-direct": cmd_sweep_direct,
        "compare-adjoints": cmd_compare_adjoints,
        "gradcheck": cmd_gradcheck,
        "fit": cmd_fit,
    }
    try:
        config = _namespace_to_runconfig(args)
        return handlers[args.command](config)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SensikitError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
