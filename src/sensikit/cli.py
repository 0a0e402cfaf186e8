"""Benchmark command line: sweeps, cross-validation, and a fit demo.

Subcommands reproduce the standard verification experiments as CSV
artifacts: ``sweep-direct`` scans the direct methods over a stepsize grid
against analytic references, ``compare-adjoints`` tabulates every
solver-based gradient method and ``gradcheck`` pass/fails each method,
both against forward sensitivity at tolerance 1e-12 whatever the command's
tolerance, and ``fit`` runs plain gradient descent on self-generated data.
Plotting stays out of process; every command emits deterministic CSV.
"""

from __future__ import annotations

import argparse
import configparser
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
    "jacobian_evaluations,accepted_steps,rejected_steps"
)
FIT_HEADER = "iteration,theta,loss,grad_norm"

REFERENCE_TOL = 1e-12  # abstol = reltol of the forward-sensitivity reference

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
# sweep-direct


def cmd_sweep_direct(config: RunConfig) -> int:
    entry = config.make_entry()
    if entry.analytic_gradient is None:
        raise ValueError(
            f"problem {entry.id!r} has no analytic gradient reference; "
            f"sweep-direct is unsupported for it"
        )
    ref = entry.analytic_gradient()[0]
    t1 = entry.problem.tspan[1]

    def analytic_fn(th):
        # the canonical loss of the closed-form solution, generic over the scalar kind
        return entry.loss.value_at(entry.analytic_solution(t1, th[0]), 0)

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
    )


def _reference_gradient(entry):
    """Forward sensitivity of ``entry`` at tolerance ``REFERENCE_TOL``."""
    cfg = SolverConfig(abstol=REFERENCE_TOL, reltol=REFERENCE_TOL)
    return gradient(entry.problem, entry.loss, "forward_sensitivity", cfg).gradient


def _compare(entry, config: RunConfig, methods, epsilon=None):
    """Yield ``(method, result, rel_err)`` per method against one reference
    gradient: ``result`` is a ``SensitivityResult``, or the ``SensikitError``
    the method raised (``rel_err`` then nan)."""
    ref = _reference_gradient(entry)
    for method in methods:
        try:
            res = _solver_gradient(method, entry, config, epsilon=epsilon)
        except SensikitError as err:
            yield method, err, np.nan
            continue
        yield method, res, _rel_error(res.gradient, ref)


def cmd_compare_adjoints(config: RunConfig) -> int:
    entry = config.make_entry()
    rows = []
    for method, res, rel_err in _compare(entry, config, config.methods or ADJOINT_METHODS):
        if isinstance(res, SensikitError):
            status = f"blowup: {type(res).__name__}"
            rows.append((method, "nan", "nan", "0", "0", status, "0", "0", "0"))
            continue
        rows.append(
            (
                method,
                ";".join(fmt(g) for g in res.gradient),
                fmt(rel_err),
                str(res.stats.rhs_evaluations),
                str(res.peak_stored_states or 0),
                "ok",
                str(res.stats.jacobian_evaluations),
                str(res.stats.accepted_steps),
                str(res.stats.rejected_steps),
            )
        )
    _write_rows(config.out, COMPARE_HEADER, rows)
    return EXIT_OK


# ---------------------------------------------------------------------
# gradcheck


GRADCHECK_METHODS = ("forward_fd", "complex_step", "forward_ad", *ADJOINT_METHODS)

GRADCHECK_TOLERANCE = 1e-3


def cmd_gradcheck(config: RunConfig, entries=None) -> int:
    """Compare every applicable method against forward sensitivity at tolerance 1e-12.

    Prints one PASS/FAIL line per (problem, method); a method that raises a
    numerical failure (such as an unstable backsolve) is reported and
    skipped rather than failed.  Exits nonzero when any accuracy comparison
    fails.
    """
    if entries is None:
        if config.problem == "all":
            entries = [replace(config, problem=pid).make_entry() for pid in sorted(CATALOG)]
        else:
            entries = [config.make_entry()]
    methods = config.methods or GRADCHECK_METHODS
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
        for method, res, err_rel in _compare(entry, config, methods, epsilon=eps):
            if isinstance(res, SensikitError):
                lines.append(f"SKIP  {entry.id:10s} {method:28s} "
                             f"(inapplicable: {type(res).__name__})")
                continue
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


# every flag's add_argument keywords; a subcommand registers the ones it reads
_FLAGS = {
    **dict.fromkeys(("abstol", "reltol", "eps-min", "eps-max", "alpha", "gtol", "theta-init",
                     "theta-star"), dict(type=float)),
    **dict.fromkeys(("heat-n", "checkpoints", "eps-count", "max-iters"), dict(type=int)),
    "problem": dict(help="problem id (or 'all' for gradcheck)"),
    "theta": dict(type=float, help="override the problem parameter"),
    "dt": dict(type=float, help="fixed stepsize for the discrete adjoint forward pass"),
    "method": dict(dest="methods", help="comma-separated method list",
                   type=lambda s: tuple(m.strip() for m in s.split(",") if m.strip())),
    "out": dict(help="output path (default stdout)"),
    "config": dict(help="key-value config file"),
    "tolerances": dict(type=float, nargs="+", help="solver-mode tolerance panels"),
    "grad-method": dict(),
}

_SOLVER_FLAGS = "problem theta heat-n abstol reltol dt method out config checkpoints"

# subcommand -> (help, the flags its handler reads)
_COMMANDS = {
    "sweep-direct": ("direct-method error sweep",
                     "problem theta heat-n out config eps-min eps-max eps-count tolerances"),
    "compare-adjoints": ("solver-based method table vs forward sensitivity at tol 1e-12",
                         _SOLVER_FLAGS),
    "gradcheck": ("pass/fail vs forward sensitivity at tol 1e-12", _SOLVER_FLAGS),
    "fit": ("gradient-descent recovery demo", "problem abstol reltol out config alpha "
            "max-iters gtol theta-init theta-star grad-method"),
}


def _build_parser():
    """The top-level parser and its subcommand parsers, by name.

    Each subcommand takes only the flags in its ``_COMMANDS`` entry, so a
    flag it would not read exits 2.  Flags have no defaults
    (``argparse.SUPPRESS``): an absent flag leaves its ``RunConfig``
    default in place.
    """
    parser = argparse.ArgumentParser(
        prog="sensikit",
        description="gradient-method benchmarks over the built-in ODE problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            p.add_argument("--" + flag, **_FLAGS[flag])
    return parser, sub.choices


def _config_argv(command, path) -> list:
    """A config file's settings as flags of the subcommand parser ``command``.

    Keys are flag names (``eps-count``, or ``eps_count``) from any section.
    A list flag takes a comma- or space-separated list.  A key that is no
    flag of ``command`` raises ``ValueError``: checked here, because
    argparse exits on unrecognised arguments whatever ``exit_on_error``
    says.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_string(fh.read())
    argv = []
    for section in parser.sections():
        for key, raw in parser[section].items():
            flag = "--" + key.replace("_", "-")
            action = command._option_string_actions.get(flag)
            if action is None:
                raise ValueError(f"unknown key {key!r}: {command.prog} has no flag {flag}")
            if action.nargs == "+":
                argv += [flag, *raw.replace(",", " ").split()]
            else:
                argv.append(f"{flag}={raw}")
    return argv


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if "config" in args:
        command = commands[args.command]
        command.exit_on_error = False  # a bad file value returns EXIT_BAD_CONFIG
        try:
            # the file's flags go first, so explicit flags still win
            args = command.parse_args(
                [*_config_argv(command, args.config), *argv[1:]],
                argparse.Namespace(command=args.command),
            )
        except (OSError, configparser.Error, ValueError, argparse.ArgumentError) as err:
            print(f"error: bad config file: {err}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        del args.config
    if "tolerances" in args:
        args.tolerances = tuple(args.tolerances)

    handlers = {
        "sweep-direct": cmd_sweep_direct,
        "compare-adjoints": cmd_compare_adjoints,
        "gradcheck": cmd_gradcheck,
        "fit": cmd_fit,
    }
    try:
        config = RunConfig(**vars(args))
        return handlers[args.command](config)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SensikitError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
