#!/usr/bin/env python3
"""Collect benchmark results into BENCH_<label>.json at the repository root.

Reads the result files ``result-<workload>-seed<n>-trace<t>.json`` that
``perfbench/run.py`` leaves in ``.perfbench_out/`` and writes, per workload:

* from the end-to-end files (``--trace 0``): the median and quartiles, over
  the files, of each end-to-end metric (``wall_ref_ratio``, ``setup_s``,
  ``peak_rss_mb``); the benchmark runs (result files), and the timed runs
  attempted and failed and the failed share; the seeds, and the machine
  facts and versions the files record;
* from the traced files (``--trace 1``), under ``layers``: the seeds and
  the median, over the files, of each per-layer metric.

With ``--parent DIR`` it also reads the parent commit's result files from
DIR, records the same summary for them, and compares the end-to-end files
run by run over the seeds both sides ran: for each metric, the pairs in
which this commit reads lower, the change of the medians, the parent's
quartile distance and ``gain_shown``, whether those show a gain: ten pairs
or more, this commit lower in nine tenths of them or more (a tie counts for
neither side) and a gap of the medians wider than the parent's quartile
distance.  ``failed_share_higher`` flags a workload whose failed share of
timed runs is higher than the parent's.  The quartiles are those of
``statistics.quantiles(..., method="inclusive")``.  Every result file in a
directory counts, so clear it before a measurement.  Standard library only:

    python3 scripts/bench_record.py --label batch-axis --parent ../parent/.perfbench_out
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_ref_ratio", "setup_s", "peak_rss_mb")
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>-?\d+)-trace[01]\.json$")


def _read(results: str, trace: int = 0) -> dict:
    """{workload: {seed: result file contents}} of the result files of one trace mode."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(results, f"result-*-trace{trace}.json"))):
        m = RESULT.search(os.path.basename(path))
        if m:
            with open(path) as fh:
                runs.setdefault(m["workload"], {})[int(m["seed"])] = json.load(fh)
    return runs


def _spread(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _distinct(items: list) -> list:
    out = []
    for item in items:
        if item not in out:
            out.append(item)
    return out


def summarise(by_seed: dict) -> dict:
    """One side's summary of one workload's result files, keyed by seed."""
    files = [by_seed[seed] for seed in sorted(by_seed)]
    metrics = {}
    for name in METRICS:
        values = [f["result"]["metrics"][name]["value"] for f in files
                  if name in f["result"]["metrics"]]
        if values:
            metrics[name] = _spread(values)
    attempted = sum(f["result"]["attempted"] for f in files)
    failed = sum(f["result"]["failed"] for f in files)
    return {
        "seeds": sorted(by_seed),
        "benchmark_runs": len(files),
        "runs_attempted": attempted,
        "runs_failed": failed,
        "failed_share": failed / max(attempted, 1),
        "metrics": metrics,
        "machines": _distinct([f.get("machine") for f in files]),
        "versions": _distinct([f.get("versions") for f in files]),
    }


def layers(by_seed: dict) -> dict:
    """One side's per-layer medians of one workload's traced result files."""
    values: dict = {}
    for seed in sorted(by_seed):
        for name, metric in by_seed[seed]["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {"seeds": sorted(by_seed),
            "medians": {name: statistics.median(values[name]) for name in sorted(values)}}


def _side(runs: dict, traced: dict, name: str) -> dict:
    entry = summarise(runs[name]) if name in runs else {}
    if name in traced:
        entry["layers"] = layers(traced[name])
    return entry


def compare(change: dict, parent: dict, change_sum: dict, parent_sum: dict) -> dict:
    """Pair the two sides seed by seed; lower reads better for every metric."""
    seeds = sorted(set(change) & set(parent))
    out = {}
    for name in METRICS:
        pairs = [(parent[s]["result"]["metrics"][name]["value"],
                  change[s]["result"]["metrics"][name]["value"]) for s in seeds
                 if name in parent[s]["result"]["metrics"] and name in change[s]["result"]["metrics"]]
        if not pairs:
            continue
        p, c = parent_sum["metrics"][name], change_sum["metrics"][name]
        lower = sum(b < a for a, b in pairs)
        gap, iqr = p["median"] - c["median"], p["q3"] - p["q1"]
        out[name] = {
            "pairs": len(pairs),
            "change_lower": lower,
            "change_higher": sum(b > a for a, b in pairs),
            "median_change_frac": c["median"] / p["median"] - 1.0,
            "median_gap": gap,
            "parent_iqr": iqr,
            "gain_shown": len(pairs) >= 10 and 10 * lower >= 9 * len(pairs) and gap > iqr,
        }
    return out


def record(results: str, label: str, parent: str | None = None) -> dict:
    runs, traced = _read(results, 0), _read(results, 1)
    if not runs and not traced:
        raise ValueError(f"no result-*-trace0.json files and no traced ones in {results}")
    parent_runs, parent_traced = {}, {}
    if parent is not None:
        parent_runs, parent_traced = _read(parent, 0), _read(parent, 1)
    workloads = {}
    for name in sorted(runs.keys() | traced.keys()):
        entry = _side(runs, traced, name)
        if name in parent_runs or name in parent_traced:
            entry["parent"] = _side(parent_runs, parent_traced, name)
        if name in runs and name in parent_runs:
            entry["paired"] = compare(runs[name], parent_runs[name], entry, entry["parent"])
            entry["failed_share_higher"] = entry["failed_share"] > entry["parent"]["failed_share"]
        workloads[name] = entry
    return {"label": label, "workloads": workloads}


def main(argv=None, root: str = ROOT) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    ap.add_argument("--results", default=os.path.join(root, ".perfbench_out"),
                    help="directory of this commit's result files")
    ap.add_argument("--parent", default=None, help="directory of the parent commit's result files")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        ap.error(f"label must be letters, digits, '.', '_' or '-', got {args.label!r}")
    try:
        bench = record(args.results, args.label, args.parent)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(root, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
