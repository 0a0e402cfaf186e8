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
        "jacobian_evaluations"
    )
    rows = read_csv(out)
    assert [r["method"] for r in rows] == list(cli.ADJOINT_METHODS)
    for r in rows:
        assert r["status"] == "ok"
        assert abs(float(r["gradient"]) - (-43.539778)) <= 1e-4 * 43.54
        assert int(r["jacobian_evaluations"]) > 0


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
    rc = run_main(["gradcheck", "--problem", "predprey", "--include-primal-only",
                   "--method", "forward_sensitivity"])
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


def test_compare_adjoints_warns_on_cfl_violation(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = run_main(["compare-adjoints", "--problem", "heat1d", "--heat-n", "96",
                   "--method", "discrete_adjoint", "--dt", "1e-3",
                   "--abstol", "1e-8", "--reltol", "1e-8", "--out", str(out)])
    err = capsys.readouterr().err
    assert "stability bound" in err
    assert rc == 0
