"""``run.py compare A.json B.json``: verdicts from the benchmark's bounds.

Each file holds the runs one or more ``run.py --out`` calls appended.
Per workload and end-to-end metric it prints both sides' median and
quartiles and a verdict, where "worse" means B is worse than A:

* a metric whose spread (quartile distance over median) exceeds its
  bound on either side is "unresolved", unless every B run beats every
  A run;
* otherwise the change of the median against the bound gives
  "improved", "worse" or "unchanged".

Modeled cycles are the same on every run of one code and have bound 0,
so for them "unchanged" means identical and any change is a verdict.

Exits 1 if any verdict is "worse" or "unresolved".
"""

import argparse
import json
import statistics

FAILING = ("worse", "unresolved")


def summary(values):
    """``(median, q1, q3)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values):
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def _values(runs, workload, metric):
    return [run["metrics"][metric] for run in runs
            if run["workload"] == workload]


def verdict(a_runs, b_runs, workload, metric, bound, lower):
    a = _values(a_runs, workload, metric)
    b = _values(b_runs, workload, metric)
    sign = 1.0 if lower else -1.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return a, b, "improved"
        return a, b, "unresolved"
    change = sign * (summary(b)[0] - summary(a)[0]) / abs(summary(a)[0])
    if change > bound:
        return a, b, "worse"
    if change < -bound:
        return a, b, "improved"
    return a, b, "unchanged"


def main(argv, spec, config):
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="baseline results file")
    parser.add_argument("b", help="candidate results file")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        a_runs = json.load(handle)["runs"]
    with open(args.b) as handle:
        b_runs = json.load(handle)["runs"]
    workloads = [name for name in config["workloads"]
                 if any(run["workload"] == name for run in a_runs)
                 and any(run["workload"] == name for run in b_runs)]
    print("%-13s %-22s %12s %25s %12s %25s  %s"
          % ("workload", "metric", "A median", "A quartiles", "B median",
             "B quartiles", "verdict"))
    failing = 0
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a, b, result = verdict(a_runs, b_runs, workload, name,
                                   entry["bound"], entry["better"] == "lower")
            failing += result in FAILING
            a_median, a_q1, a_q3 = summary(a)
            b_median, b_q1, b_q3 = summary(b)
            print("%-13s %-22s %12.5g %12.5g-%-12.5g %12.5g %12.5g-%-12.5g  "
                  "%s" % (workload, name, a_median, a_q1, a_q3, b_median,
                          b_q1, b_q3, result))
    return 1 if failing else 0
