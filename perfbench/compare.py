#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per workload x end-to-end metric.

    python3 perfbench/compare.py BASE [CHANGE]

BASE and CHANGE are directories of saved run outputs (the stdout of run.py,
one run per file) or single files holding several runs' stdout one after
another. Runs are grouped by the workload named in their metadata line and
paired by seed (in file order when the seeds differ). A `--workload all`
run counts as one run of each workload it measured. Metrics, bounds and
workloads come from BENCHMARK.json at the repository root.

For each row the tool prints both sides' median and quartiles (Python's
statistics.quantiles, n=4), the spread (quartile distance / median), the
share of pairs the change won, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ, in the better
              direction, by more than the base quartile distance;
  unresolved  a side's spread exceeds the metric's bound and not every
              change run reads better than every base run;
  worse       the change median is worse than the base median by more
              than the bound;
  unchanged   otherwise.

With only BASE, it prints each set's medians and spreads. The last line
says whether every spread is within its bound and, with two sets, whether
no change median is worse than its base by more than the bound: the
acceptance rule for repeated runs of the same code. That rule exempts the
spread of setup_s (one cold start per sample, so noisier than the timed
metrics), but not its median; setup_s spreads are still printed.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(path):
    """Returns [(workload, seed, metrics)] from every run found under path."""
    files = ([os.path.join(path, name) for name in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        meta = None
        with open(name) as handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "meta" in obj:
                    meta = obj["meta"]
                elif "metrics" in obj and meta is not None:
                    values = {key: entry["value"] for key, entry in obj["metrics"].items()}
                    seed, correct = meta["host"]["seed"], obj.get("correct", False)
                    if meta["workload"] == "all":
                        # Metric names carry a "<workload>." prefix.
                        split = {}
                        for key, value in values.items():
                            workload, _, name = key.partition(".")
                            split.setdefault(workload, {})[name] = value
                        runs += [(w, seed, v, correct) for w, v in split.items()]
                    else:
                        runs.append((meta["workload"], seed, values, correct))
                    meta = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, change, direction, bound):
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if better(c, b, direction))
    win_share = wins / len(pairs) if pairs else 0.0
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    if win_share >= 0.9 and better(cm, bm, direction) and abs(cm - bm) > (b3 - b1):
        return "improved", win_share
    if spread(base) > bound or spread(change) > bound:
        all_better = all(better(c, b, direction) for c in change for b in base)
        return ("unchanged" if all_better else "unresolved"), win_share
    worse_by = (cm - bm) / bm if direction == "lower" else (bm - cm) / bm
    return ("worse" if worse_by > bound else "unchanged"), win_share


def pair_up(base_runs, change_runs):
    """Orders both sides so index i of each holds the same seed when possible."""
    base_by_seed = {seed: values for seed, values in base_runs}
    change_by_seed = {seed: values for seed, values in change_runs}
    common = sorted(set(base_by_seed) & set(change_by_seed))
    if len(common) == min(len(base_runs), len(change_runs)) and common:
        return [base_by_seed[s] for s in common], [change_by_seed[s] for s in common]
    n = min(len(base_runs), len(change_runs))
    return [v for _, v in base_runs[:n]], [v for _, v in change_runs[:n]]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]

    sets = [load_runs(args.base)] + ([load_runs(args.change)] if args.change else [])
    incorrect = sum(1 for runs in sets for run in runs if not run[3])
    workloads = [w["name"] for w in bench["workloads"]]
    spreads_ok = True
    medians_ok = True
    header = f"{'workload':<16} {'metric':<16} {'base median [q1, q3]':>34} {'spread':>7}"
    if args.change:
        header += f" {'change median [q1, q3]':>34} {'spread':>7} {'delta':>8} {'won':>5}  verdict"
    print(header)
    for workload in workloads:
        per_set = [[(seed, values) for w, seed, values, _ in runs if w == workload]
                   for runs in sets]
        if not per_set[0]:
            continue
        if args.change:
            base_runs, change_runs = pair_up(per_set[0], per_set[1])
        else:
            base_runs, change_runs = [v for _, v in per_set[0]], []
        for name, unit, direction, bound in metrics:
            base = [values[name] for values in base_runs if name in values]
            if not base:
                continue
            b1, bm, b3 = quartiles(base)
            bs = spread(base)
            if name != "setup_s" and bs > bound:
                spreads_ok = False
            row = (f"{workload:<16} {name:<16} "
                   f"{f'{bm:.6g} [{b1:.6g}, {b3:.6g}] {unit}':>34} {bs:>7.3f}")
            if change_runs:
                change = [values[name] for values in change_runs if name in values]
                c1, cm, c3 = quartiles(change)
                cs = spread(change)
                if name != "setup_s" and cs > bound:
                    spreads_ok = False
                worse_by = (cm - bm) / bm if direction == "lower" else (bm - cm) / bm
                if worse_by > bound:
                    medians_ok = False
                label, won = verdict(base, change, direction, bound)
                row += (f" {f'{cm:.6g} [{c1:.6g}, {c3:.6g}] {unit}':>34} {cs:>7.3f}"
                        f" {100 * (cm - bm) / bm:>+7.2f}% {won:>5.2f}  {label}")
            print(row)
    summary = f"runs: {', '.join(str(len(runs)) for runs in sets)}; incorrect runs: {incorrect}; "
    summary += f"spreads within bounds (setup_s spread exempt): {'yes' if spreads_ok else 'NO'}"
    if args.change:
        summary += f"; medians within bounds: {'yes' if medians_ok else 'NO'}"
    print(summary)
    return 0 if spreads_ok and medians_ok and incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
