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

Two BENCH files compare with::

    python3 tools/bench_file.py --compare BENCH_pr43.json BENCH_pr44.json

which prints, per workload and end-to-end metric in ``BENCHMARK.json``'s
order, each file's median and IQR and the relative change of the medians;
a metric one file lacks reads ``missing``.
"""

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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


def compare(old, new, benchmark):
    """Rows ``(workload, metric, old, new, change)`` of the BENCH dicts ``old`` and ``new``.

    One row per workload and end-to-end metric of ``benchmark`` (the parsed
    ``BENCHMARK.json``), in its order: each file's ``median (IQR)``, and the
    change of the medians relative to ``old``'s; ``missing`` where a file
    lacks the metric, and a change of ``n/a`` from a median of 0.
    """
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in (m["name"] for m in benchmark["end_to_end"]):
            a, b = (f["workloads"].get(workload, {}).get("metrics", {}).get(metric)
                    for f in (old, new))
            cells = ["missing" if x is None else f"{x['median']:.4g} ({x['iqr']:.3g})"
                     for x in (a, b)]
            change = ("missing" if a is None or b is None else "n/a" if a["median"] == 0
                      else f"{(b['median'] - a['median']) / abs(a['median']):+.1%}")
            rows.append((workload, metric, *cells, change))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print the end-to-end rows of two BENCH files instead")
    ap.add_argument("--label")
    ap.add_argument("--commit")
    ap.add_argument("--runs", help="directory of untraced reports")
    ap.add_argument("--traced", help="directory of traced reports")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(f).read_text(encoding="utf-8")) for f in args.compare)
        rows = compare(old, new, json.loads(BENCHMARK.read_text(encoding="utf-8")))
        rows.insert(0, ("workload", "metric", f"{old['label']} median (IQR)",
                        f"{new['label']} median (IQR)", "change"))
        widths = [max(len(r[k]) for r in rows) for k in range(5)]
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return
    missing = [f"--{k}" for k in ("label", "commit", "runs", "traced", "out")
               if getattr(args, k) is None]
    if missing:
        ap.error(f"the following arguments are required: {', '.join(missing)}")
    data = bench_file(args.label, args.commit, args.runs, args.traced)
    Path(args.out).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
