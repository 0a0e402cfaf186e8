"""Assemble a ``BENCH_<label>.json`` from the reports of ``bench/run.py``.

Each benchmark run writes ``bench/out/report-<workload>-seed<s>-trace<t>.json``.
Collect the untraced reports of one commit in one directory and its traced
reports in another, then::

    python3 tools/bench_file.py --label pr41 --commit <rev> \\
        --runs DIR --traced DIR --out BENCH_pr41.json

Per workload and end-to-end metric (the speed-scaled ``metrics`` of the
untraced reports) the file holds the median, the quartiles and their
distance (the IQR, quartiles by linear interpolation) over the seeds found,
and each seed's value.  Per workload it also holds one traced run's layer
metrics (unscaled), its bitwise check and absent layers, and the
environment the reports name: the Python and numpy versions and ``nproc``
(reports naming two are refused).
"""

import argparse
import json
import statistics
from pathlib import Path


def _reports(directory, trace):
    """``{workload: {seed: report}}`` of the reports in ``directory`` at ``trace``."""
    out = {}
    for path in sorted(Path(directory).glob(f"report-*-trace{trace}.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault(report["workload"], {})[report["seed"]] = report
    return out


def _spread(values):
    """Median, quartiles and IQR of ``values``; one value is all three, IQR 0."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _environment(reports):
    """The one environment every report names; raises if two differ."""
    seen = {tuple((k, r["environment"][k]) for k in ("python", "numpy", "nproc"))
            for r in reports}
    if len(seen) > 1:
        raise ValueError(f"the reports name different environments: {sorted(seen)}")
    return dict(seen.pop()) if seen else {}


def bench_file(label, commit, runs, traced):
    untraced, layers = _reports(runs, 0), _reports(traced, 1)
    environment = _environment([r for by_seed in (*untraced.values(), *layers.values())
                                for r in by_seed.values()])
    workloads = {}
    for workload, by_seed in sorted(untraced.items()):
        seeds = sorted(by_seed)
        first = by_seed[seeds[0]]
        names = list(first["metrics"])
        metrics = {}
        for name in names:
            values = [by_seed[s]["metrics"][name]["value"] for s in seeds]
            metrics[name] = {"unit": first["metrics"][name]["unit"], **_spread(values),
                             "by_seed": dict(zip(map(str, seeds), values))}
        entry = {"seeds": seeds, "seconds": first["seconds"], "metrics": metrics}
        traced_runs = layers.get(workload, {})
        if traced_runs:
            seed = min(traced_runs)
            report = traced_runs[seed]
            entry["traced"] = {
                "seed": seed,
                "bitwise_equal": report["traced"]["bitwise_equal"],
                "absent_layers": report["traced"]["absent_layers"],
                "layers": {k: v["value"] for k, v in report["metrics"].items()},
            }
        workloads[workload] = entry
    return {"label": label, "commit": commit, "environment": environment,
            "workloads": workloads}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--commit", required=True)
    ap.add_argument("--runs", required=True, help="directory of untraced reports")
    ap.add_argument("--traced", required=True, help="directory of traced reports")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    data = bench_file(args.label, args.commit, args.runs, args.traced)
    Path(args.out).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
