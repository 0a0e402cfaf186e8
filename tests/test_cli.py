import csv

import numpy as np
import pytest

import sensikit as sk
from sensikit import cli


def run_main(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_header_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_main([
        "sweep-direct", "--problem", "harmonic", "--eps-min", "1e-10",
        "--eps-max", "1e-2", "--eps-count", "5", "--tolerances", "1e-6",
        "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == "method,epsilon,gradient,abs_rel_error,rhs_evaluations"
    assert "\r" not in text
    rows = read_csv(out)
    assert all(float(r["abs_rel_error"]) >= 0 for r in rows)


def test_sweep_deterministic_bytes(tmp_path):
    args = [
        "sweep-direct", "--problem", "harmonic", "--eps-min", "1e-9",
        "--eps-max", "1e-3", "--eps-count", "4", "--tolerances", "1e-6",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_main(args + ["--out", str(a)]) == 0
    assert run_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_full_float_precision(tmp_path):
    out = tmp_path / "sweep.csv"
    run_main([
        "sweep-direct", "--problem", "harmonic", "--eps-min", "1e-8",
        "--eps-max", "1e-4", "--eps-count", "3", "--tolerances", "1e-6",
        "--out", str(out),
    ])
    row = read_csv(out)[0]
    # 17 significant digits survive a parse round trip
    val = float(row["gradient"])
    assert f"{val:.17g}" == row["gradient"]


def test_sweep_requires_analytic_reference():
    assert run_main(["sweep-direct", "--problem", "predprey"]) == cli.EXIT_BAD_CONFIG


def test_sweep_analytic_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    run_main([
        "sweep-direct", "--problem", "harmonic", "--eps-count", "29",
        "--tolerances", "1e-6", "--out", str(out),
    ])
    rows = read_csv(out)
    cfd = [(float(r["epsilon"]), float(r["abs_rel_error"]))
           for r in rows if r["method"] == "centered_fd/analytic"]
    eps = np.array([e for e, _ in cfd])
    err = np.array([x for _, x in cfd])
    best = int(np.argmin(err))
    assert 1e-8 <= eps[best] <= 1e-4
    ad = [r for r in rows if r["method"] == "forward_ad/analytic"]
    assert len(ad) == 1 and float(ad[0]["epsilon"]) == 0.0
    assert float(ad[0]["abs_rel_error"]) <= 1e-12
    cs = {float(r["epsilon"]): float(r["abs_rel_error"])
          for r in rows if r["method"] == "complex_step/analytic"}
    eps12 = min(cs, key=lambda e: abs(e - 1e-12))
    assert cs[eps12] <= 1e-10


def test_compare_adjoints_harmonic(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = run_main(["compare-adjoints", "--problem", "harmonic",
                   "--abstol", "1e-10", "--reltol", "1e-10", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == (
        "method,gradient,abs_rel_error,rhs_evaluations,peak_stored_states,status,"
        "jacobian_evaluations,accepted_steps,rejected_steps"
    )
    rows = read_csv(out)
    assert [r["method"] for r in rows] == list(cli.ADJOINT_METHODS)
    for r in rows:
        assert r["status"] == "ok"
        assert abs(float(r["gradient"]) - (-43.539778)) <= 1e-4 * 43.54
        assert int(r["jacobian_evaluations"]) > 0
        assert int(r["accepted_steps"]) > 0 and int(r["rejected_steps"]) >= 0


def test_compare_adjoints_predprey(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = run_main(["compare-adjoints", "--problem", "predprey",
                   "--method", "forward_sensitivity", "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert float(row["gradient"]) == pytest.approx(212.71042521681443, rel=1e-6)


def test_compare_adjoints_heat_blowup_row(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = run_main(["compare-adjoints", "--problem", "heat1d", "--heat-n", "32",
                   "--abstol", "1e-8", "--reltol", "1e-8", "--out", str(out)])
    assert rc == 0
    rows = {r["method"]: r for r in read_csv(out)}
    assert rows["continuous_backsolve"]["status"].startswith("blowup")
    da = float(rows["discrete_adjoint"]["gradient"])
    ci = float(rows["continuous_interpolating"]["gradient"])
    assert abs(da - ci) / abs(ci) <= 1e-6


def test_gradcheck_single_problem_passes(capsys):
    rc = run_main(["gradcheck", "--problem", "harmonic",
                   "--abstol", "1e-10", "--reltol", "1e-10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 6


def test_gradcheck_primal_only_failure_row(capsys):
    rc = run_main(["gradcheck", "--problem", "predprey",
                   "--method", "forward_sensitivity,forward_ad_primal_only"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_GRADCHECK_FAILED
    assert "FAIL" in out
    assert "forward_ad_primal_only" in out


def test_gradcheck_all_honours_problem_flags(capsys):
    # --problem all builds each entry from the same flags as a single problem
    flags = ["--heat-n", "8", "--method", "forward_sensitivity"]
    run_main(["gradcheck", "--problem", "heat1d"] + flags)
    single = capsys.readouterr().out
    run_main(["gradcheck", "--problem", "all"] + flags)
    heat_rows = [ln for ln in capsys.readouterr().out.splitlines() if " heat1d " in ln]
    assert single.splitlines() == heat_rows
    assert len(heat_rows) == 1


def test_gradcheck_zero_parameter_problem_vacuous(capsys):
    prob = sk.OdeProblem(
        rhs=lambda u, p, t: -u, u0=[1.0], tspan=(0.0, 1.0), theta=np.zeros(0)
    )
    entry = sk.problems.CatalogEntry(
        id="fixed", problem=prob, loss=sk.LinearStateLoss([1.0], [[1.0]]), params={}
    )
    config = cli.RunConfig(command="gradcheck")
    rc = cli.cmd_gradcheck(config, entries=[entry])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == ""


def test_rel_error_against_a_zero_reference_is_the_absolute_norm():
    # a zero reference has no norm to divide by, so the error is absolute
    assert cli._rel_error([3.0, -4.0], [0.0, 0.0]) == 5.0
    assert cli._rel_error(-2.0, 0.0) == 2.0
    assert cli._rel_error([3.0, -4.0], [6.0, -8.0]) == 0.5


def test_fit_recovers_target(tmp_path):
    out = tmp_path / "fit.csv"
    rc = run_main(["fit", "--problem", "harmonic", "--abstol", "1e-8",
                   "--reltol", "1e-8", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0]["iteration"] == "0"
    final_theta = float(rows[-1]["theta"])
    assert abs(final_theta - 0.3) <= 1e-3
    losses = [float(r["loss"]) for r in rows]
    assert losses[-1] < losses[0]


def test_fit_starting_at_optimum_stops_immediately(tmp_path):
    out = tmp_path / "fit.csv"
    rc = run_main(["fit", "--theta-init", "0.3", "--abstol", "1e-10",
                   "--reltol", "1e-10", "--gtol", "1e-5", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["grad_norm"]) <= 1e-5


def test_fit_zero_stepsize_runs_to_max_iters(tmp_path):
    out = tmp_path / "fit.csv"
    rc = run_main(["fit", "--alpha", "0", "--max-iters", "5",
                   "--abstol", "1e-8", "--reltol", "1e-8", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 6
    thetas = {r["theta"] for r in rows}
    assert len(thetas) == 1


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep settings\n"
        "[run]\n"
        "eps-count = 3\n"
        "eps-min = 1e-8\n"
        "eps-max = 1e-4\n"
        "tolerances = 1e-6\n"
        "problem = harmonic\n"
    )
    out = tmp_path / "a.csv"
    rc = run_main(["sweep-direct", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    eps_values = {r["epsilon"] for r in rows if r["method"] == "centered_fd/analytic"}
    assert len(eps_values) == 3
    # explicit flag beats the file value
    out2 = tmp_path / "b.csv"
    rc = run_main(["sweep-direct", "--config", str(cfg), "--eps-count", "4",
                   "--out", str(out2)])
    assert rc == 0
    rows = read_csv(out2)
    eps_values = {r["epsilon"] for r in rows if r["method"] == "centered_fd/analytic"}
    assert len(eps_values) == 4


def test_bad_config_file_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\neps-count = not-a-number\n")
    assert run_main(["sweep-direct", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG


def test_invalid_epsilon_grid_rejected():
    assert run_main([
        "sweep-direct", "--problem", "harmonic",
        "--eps-min", "1e-2", "--eps-max", "1e-8",
    ]) == cli.EXIT_BAD_CONFIG


def test_fit_divergence_flushes_trace_and_exits_3(tmp_path):
    out = tmp_path / "fit.csv"
    # ascent direction makes the loss climb monotonically away from the
    # minimizer until the divergence guard trips
    rc = run_main(["fit", "--alpha=-0.002", "--max-iters", "60",
                   "--abstol", "1e-8", "--reltol", "1e-8", "--out", str(out)])
    assert rc == cli.EXIT_NUMERICAL
    rows = read_csv(out)
    assert len(rows) >= 10
    losses = [float(r["loss"]) for r in rows]
    assert losses[-1] > losses[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compare_adjoints_warns_on_cfl_violation(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = run_main(["compare-adjoints", "--problem", "heat1d", "--heat-n", "96",
                   "--method", "discrete_adjoint", "--dt", "1e-3",
                   "--abstol", "1e-8", "--reltol", "1e-8", "--out", str(out)])
    err = capsys.readouterr().err
    assert "stability bound" in err
    assert rc == 0


def test_config_file_method_key_selects_methods(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nmethod = continuous_quadrature\nabstol = 1e-6\nreltol = 1e-6\n")
    out = tmp_path / "cmp.csv"
    rc = run_main(["compare-adjoints", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert [r["method"] for r in read_csv(out)] == ["continuous_quadrature"]


@pytest.mark.parametrize("key", ["eps_cont", "methods", "alpha"])
def test_config_file_unknown_key_rejected(tmp_path, capsys, key):
    # a misspelt key, the dest name of --method, and a flag of another subcommand
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\n{key} = 3\n")
    assert run_main(["sweep-direct", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    assert repr(key) in capsys.readouterr().err


# the flags a subcommand does not read: sweep-direct's --tolerances panels
# override --abstol/--reltol, and fit reads --theta-init, --theta-star and
# --grad-method instead
UNREAD_FLAGS = [
    *(("sweep-direct", flag) for flag in ("abstol", "reltol", "dt", "method", "checkpoints")),
    *(("fit", flag) for flag in ("theta", "heat-n", "dt", "method", "checkpoints")),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command, flag):
    # an unknown problem stops at once a run that accepted the flag
    with pytest.raises(SystemExit) as err:
        run_main([command, f"--{flag}", "1", "--problem", "nosuch"])
    assert err.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\n{flag} = 1\nproblem = nosuch\n")
    assert run_main([command, "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    assert repr(flag) in capsys.readouterr().err


def test_config_file_list_flags(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[run]\neps-count = 2\ntolerances = 1e-6, 1e-12\n")
    out = tmp_path / "sweep.csv"
    assert run_main(["sweep-direct", "--config", str(cfg), "--out", str(out)]) == 0
    tags = {r["method"].split("/")[1] for r in read_csv(out)}
    assert tags == {"analytic", "solver-1e-06", "solver-1e-12"}


def _verdicts(out):
    # {(problem, method): "PASS" | "FAIL" | "SKIP"} of a gradcheck report
    return {(ln.split()[1], ln.split()[2]): ln.split()[0] for ln in out.splitlines()}


def test_gradcheck_judges_every_method_against_one_tight_reference(capsys):
    # at a loose command tolerance the reference stays forward sensitivity at
    # 1e-12, so the right methods pass and forward FD's error shows
    rc = run_main(["gradcheck", "--problem", "all", "--heat-n", "16",
                   "--abstol", "1e-6", "--reltol", "1e-6"])
    verdicts = _verdicts(capsys.readouterr().out)
    right = ["forward_ad", "forward_sensitivity", "discrete_adjoint",
             "continuous_interpolating", "continuous_quadrature"]
    for problem in ("harmonic", "heat1d", "predprey"):
        for method in right:
            assert verdicts[problem, method] == "PASS", (problem, method)
    for problem in ("harmonic", "predprey"):
        assert verdicts[problem, "continuous_backsolve"] == "PASS", problem
    for problem in ("heat1d", "predprey"):
        assert verdicts[problem, "forward_fd"] == "FAIL", problem
    assert rc == cli.EXIT_GRADCHECK_FAILED


@pytest.mark.parametrize("flags", [["--problem", "predprey"],
                                   ["--problem", "heat1d", "--heat-n", "16"]])
def test_compare_adjoints_errors_are_against_the_tight_reference(tmp_path, flags):
    # the methods differentiate the ODE: heat1d's closed form is the PDE's,
    # 1.63e-3 off the n = 16 ODE's gradient
    out = tmp_path / "cmp.csv"
    rc = run_main(["compare-adjoints", *flags, "--abstol", "1e-6", "--reltol", "1e-6",
                   "--out", str(out)])
    assert rc == 0
    ok = [r for r in read_csv(out) if r["status"] == "ok"]
    assert len(ok) >= 4
    for r in ok:
        assert float(r["abs_rel_error"]) <= 1e-5, r["method"]


@pytest.mark.parametrize("problem", ["harmonic", "predprey", "heat1d"])
def test_reference_gradient_is_forward_sensitivity_at_tol_1e_12(problem):
    entry = cli.RunConfig(command="gradcheck", problem=problem, heat_n=16).make_entry()
    cfg = sk.SolverConfig(abstol=1e-12, reltol=1e-12)
    direct = sk.gradient(entry.problem, entry.loss, "forward_sensitivity", cfg).gradient
    assert cli._reference_gradient(entry).tobytes() == direct.tobytes()


def test_theta_sets_predprey_a(capsys):
    # --theta is predprey's a: 193.115... is the a = 0.95 gradient, 212.710...
    # the default a = 1's
    rc = run_main(["compare-adjoints", "--problem", "predprey", "--theta", "0.95",
                   "--method", "forward_sensitivity"])
    assert rc == 0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert float(row["gradient"]) == pytest.approx(193.11513718215019, rel=1e-12)


def test_compare_adjoints_prints_the_csv_it_writes(tmp_path, capsys):
    args = ["compare-adjoints", "--problem", "harmonic", "--abstol", "1e-8",
            "--reltol", "1e-8", "--method", "forward_sensitivity,continuous_interpolating"]
    out = tmp_path / "cmp.csv"
    assert run_main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run_main(args) == 0
    assert capsys.readouterr().out == out.read_text()


def test_gradcheck_out_writes_the_report_it_prints(tmp_path, capsys):
    out = tmp_path / "report.txt"
    rc = run_main(["gradcheck", "--problem", "harmonic", "--abstol", "1e-8", "--reltol", "1e-8",
                   "--method", "forward_sensitivity,continuous_quadrature", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 2
    assert out.read_text() == printed


@pytest.mark.parametrize("argv,message", [
    (["sweep-direct", "--eps-count", "1"], "epsilon grid needs at least 2 points"),
    (["compare-adjoints", "--abstol", "0"], "tolerances must be positive"),
    (["gradcheck", "--reltol", "-1"], "tolerances must be positive"),
    (["fit", "--problem", "predprey"], "the fit demo is wired to the harmonic problem"),
])
def test_a_bad_run_config_exits_2_with_its_message(capsys, argv, message):
    assert run_main(argv) == cli.EXIT_BAD_CONFIG == 2
    assert capsys.readouterr().err == f"error: {message}\n"
