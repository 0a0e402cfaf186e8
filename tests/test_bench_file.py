"""``tools/bench_file.py`` on fake ``bench/run.py`` reports."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"
ENV = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "cpu": "test"}


def load_tool():
    """``tools/bench_file.py``, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_report(directory, workload, seed, metrics, trace=0, environment=ENV, traced=None):
    """A report as ``bench/run.py`` names and shapes it; ``metrics`` maps name to value."""
    report = {"workload": workload, "seed": seed, "seconds": 10.0, "trace": trace,
              "environment": environment,
              "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}
    if traced is not None:
        report["traced"] = traced
    path = Path(directory) / f"report-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(report), encoding="utf-8")


def test_a_workload_with_one_seed_reports_its_value_as_median_and_quartiles(tmp_path):
    # statistics.quantiles needs two values, so one seed is its own median and quartiles
    write_report(tmp_path, "lotka-volterra", 1, {"grad_ms_p50": 16.5})
    data = load_tool().bench_file("x", "abc", tmp_path, tmp_path)
    metric = data["workloads"]["lotka-volterra"]["metrics"]["grad_ms_p50"]
    assert metric == {"unit": "ms", "median": 16.5, "q1": 16.5, "q3": 16.5, "iqr": 0.0,
                      "by_seed": {"1": 16.5}}
    assert data["environment"] == {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
    assert "traced" not in data["workloads"]["lotka-volterra"]


def test_a_workload_with_three_seeds_reports_inclusive_quartiles(tmp_path):
    values = {1: 16.0, 2: 19.0, 3: 17.5}
    for seed, value in values.items():
        write_report(tmp_path, "diffusion-fit", seed, {"grads_per_s": value})
    data = load_tool().bench_file("x", "abc", tmp_path, tmp_path)
    entry = data["workloads"]["diffusion-fit"]
    q1, median, q3 = statistics.quantiles([16.0, 19.0, 17.5], n=4, method="inclusive")
    assert entry["seeds"] == [1, 2, 3] and entry["seconds"] == 10.0
    assert entry["metrics"]["grads_per_s"] == {
        "unit": "ms", "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
        "by_seed": {"1": 16.0, "2": 19.0, "3": 17.5}}


def test_a_traced_report_gives_its_layers_and_bitwise_flag(tmp_path):
    runs, traced = tmp_path / "runs", tmp_path / "traced"
    runs.mkdir()
    traced.mkdir()
    write_report(runs, "lotka-volterra", 1, {"grad_ms_p50": 16.5})
    info = {"bitwise_equal": True, "absent_layers": []}
    for seed in (3, 2):  # the lowest seed is the one kept
        write_report(traced, "lotka-volterra", seed, {"dual.ops": 100.0 * seed}, trace=1,
                     traced=info)
    data = load_tool().bench_file("x", "abc", runs, traced)
    assert data["workloads"]["lotka-volterra"]["traced"] == {
        "seed": 2, "bitwise_equal": True, "absent_layers": [], "layers": {"dual.ops": 200.0}}


def test_a_workload_with_only_a_traced_report_is_left_out(tmp_path):
    write_report(tmp_path, "lotka-volterra", 1, {"grad_ms_p50": 16.5})
    write_report(tmp_path, "heat", 1, {"dual.ops": 5.0}, trace=1,
                 traced={"bitwise_equal": True, "absent_layers": []})
    data = load_tool().bench_file("x", "abc", tmp_path, tmp_path)
    assert list(data["workloads"]) == ["lotka-volterra"]


def test_reports_naming_different_environments_are_refused(tmp_path):
    # the file holds one environment, so reports naming two are refused
    write_report(tmp_path, "lotka-volterra", 1, {"grad_ms_p50": 16.5})
    write_report(tmp_path, "diffusion-fit", 1, {"grad_ms_p50": 20.0},
                 environment={**ENV, "numpy": "1.26.4"})
    with pytest.raises(ValueError, match="^the reports name different environments"):
        load_tool().bench_file("x", "abc", tmp_path, tmp_path)


def bench(label, workloads):
    """A BENCH file's dict; ``workloads`` maps workload to ``{metric: (median, iqr)}``."""
    return {"label": label, "commit": "abc", "environment": {}, "workloads": {
        w: {"metrics": {k: {"unit": "ms", "median": m, "q1": m, "q3": m + i, "iqr": i}
                        for k, (m, i) in metrics.items()}}
        for w, metrics in workloads.items()}}


def test_compare_rows_follow_the_benchmark_order_with_the_relative_change():
    benchmark = {"workloads": [{"name": "lv"}, {"name": "df"}],
                 "end_to_end": [{"name": "grads_per_s"}, {"name": "grad_ms_p50"}]}
    old = bench("pr1", {"df": {"grad_ms_p50": (20.0, 0.5), "grads_per_s": (40.0, 1.0)},
                        "lv": {"grad_ms_p50": (16.0, 0.25), "grads_per_s": (50.0, 2.0)}})
    new = bench("pr2", {"df": {"grad_ms_p50": (21.0, 0.5), "grads_per_s": (40.0, 1.5)},
                        "lv": {"grad_ms_p50": (12.0, 0.125), "grads_per_s": (55.0, 1.0)}})
    assert load_tool().compare(old, new, benchmark) == [
        ("lv", "grads_per_s", "50 (2)", "55 (1)", "+10.0%"),
        ("lv", "grad_ms_p50", "16 (0.25)", "12 (0.125)", "-25.0%"),
        ("df", "grads_per_s", "40 (1)", "40 (1.5)", "+0.0%"),
        ("df", "grad_ms_p50", "20 (0.5)", "21 (0.5)", "+5.0%"),
    ]


def test_compare_prints_a_metric_one_file_lacks_as_missing():
    benchmark = {"workloads": [{"name": "lv"}, {"name": "heat"}],
                 "end_to_end": [{"name": "grads_per_s"}, {"name": "fail_frac"}]}
    old = bench("pr1", {"lv": {"grads_per_s": (50.0, 2.0), "fail_frac": (0.0, 0.0)}})
    new = bench("pr2", {"lv": {"fail_frac": (0.25, 0.0)}, "heat": {"grads_per_s": (9.0, 0.5)}})
    assert load_tool().compare(old, new, benchmark) == [
        ("lv", "grads_per_s", "50 (2)", "missing", "missing"),
        ("lv", "fail_frac", "0 (0)", "0.25 (0)", "n/a"),
        ("heat", "grads_per_s", "missing", "9 (0.5)", "missing"),
        ("heat", "fail_frac", "missing", "missing", "missing"),
    ]


def test_compare_from_the_command_line_prints_every_benchmark_row(tmp_path, capsys):
    tool = load_tool()
    benchmark = json.loads(tool.BENCHMARK.read_text(encoding="utf-8"))
    names = [m["name"] for m in benchmark["end_to_end"]]
    workloads = [w["name"] for w in benchmark["workloads"]]
    old, new = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
    old.write_text(json.dumps(bench("a", {w: {k: (1.0, 0.0) for k in names}
                                          for w in workloads})), encoding="utf-8")
    new.write_text(json.dumps(bench("b", {workloads[0]: {names[0]: (2.0, 0.0)}})),
                   encoding="utf-8")
    tool.main(["--compare", str(old), str(new)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["workload", "metric", "a", "median", "(IQR)", "b", "median",
                                "(IQR)", "change"]
    assert len(lines) == 1 + len(workloads) * len(names)
    assert lines[1].split() == [workloads[0], names[0], "1", "(0)", "2", "(0)", "+100.0%"]
    assert lines[2].split() == [workloads[0], names[1], "1", "(0)", "missing", "missing"]


def test_assembling_without_the_compare_mode_needs_every_assembly_argument(capsys):
    with pytest.raises(SystemExit):
        load_tool().main(["--label", "x", "--commit", "abc"])
    assert capsys.readouterr().err.rstrip().endswith(
        "error: the following arguments are required: --runs, --traced, --out")
