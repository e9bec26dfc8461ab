#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results (bench/e2e/README.md).

  python3 bench/e2e/compare.py BASE_DIR NEW_DIR
  python3 bench/e2e/compare.py --self-test

Each directory holds result files written by run.py (build-e2e/results/
by default), any number of runs per workload. For every workload and
end-to-end metric it prints both sides' median and quartiles, how many
run pairs the new side wins, and a verdict under the bound BENCHMARK.json
fixes for the metric:

  improved      the new side wins >= 90% of pairs (ties count for neither)
                and the medians differ by more than the base's quartile
                distance
  regressed     the new median is worse by more than the bound, and the
                spread of both sides is within the bound (or every new run
                is worse than every base run)
  unresolved    a side's spread (quartile distance / median) exceeds the
                bound, so "unchanged" cannot be claimed
  within bound  otherwise

Pairs are formed in seed order. Traced runs' per-layer metrics are listed
with their medians only: they have no bound. Exits 1 when anything
regressed. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")


def load_dir(path):
    """{(workload, traced): [metrics dict per run, in seed order]}."""
    runs = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        if name.endswith("-spans.json"):
            continue
        with open(name) as f:
            doc = json.load(f)
        header = doc["header"]
        key = (header["workload"], header["trace"] == "1")
        runs.setdefault(key, []).append((int(header["seed"]),
                                         doc["result"]["metrics"]))
    return {k: [m for _, m in sorted(v, key=lambda sm: sm[0])]
            for k, v in runs.items()}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """Verdict and new-side win fraction for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0

    def is_better(b, a):
        return sign * (b - a) < 0

    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if is_better(b, a))
    win_frac = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = summary(base)
    _, nmed, _ = summary(new)
    worse_share = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    noisy = max(spread(base), spread(new)) > bound
    if (pairs and win_frac >= 0.9 and worse_share < 0 and
            abs(nmed - bmed) > bq3 - bq1):
        return "improved", win_frac
    all_worse = all(is_better(a, b) for a in base for b in new)
    if worse_share > bound and (not noisy or all_worse):
        return "regressed", win_frac
    if noisy:
        return "unresolved", win_frac
    return "within bound", win_frac


def compare(base_runs, new_runs, spec, out=sys.stdout):
    """Prints the comparison; returns the number of regressions."""
    gated = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, traced = key
        base, new = base_runs[key], new_runs[key]
        out.write("\n%s%s: %d base runs, %d new runs\n" %
                  (workload, " (traced)" if traced else "", len(base), len(new)))
        out.write("  %-22s %-30s %-30s %8s %5s  %s\n" %
                  ("metric", "base med [q1, q3]", "new med [q1, q3]", "delta",
                   "wins", "verdict"))
        for name in base[0]:
            if not all(name in r for r in base + new):
                continue
            a = [r[name]["value"] for r in base]
            b = [r[name]["value"] for r in new]
            aq1, amed, aq3 = summary(a)
            bq1, bmed, bq3 = summary(b)
            delta = (bmed - amed) / abs(amed) * 100 if amed else float("nan")
            if name in gated:
                v, win_frac = verdict(a, b, gated[name]["better"],
                                      gated[name]["bound"])
                wins = "%.0f%%" % (100 * win_frac)
            else:
                v, wins = "no bound", "-"
            regressions += v == "regressed"
            out.write("  %-22s %-30s %-30s %+7.1f%% %5s  %s\n" % (
                name, "%.4g [%.4g, %.4g]" % (amed, aq1, aq3),
                "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3), delta, wins, v))
    return regressions


def self_test():
    """Checks each verdict on synthetic runs; returns a process exit code."""
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    cases = [
        ("same runs, reordered", base, base[::-1], "lower", 0.1, "within bound"),
        ("5% slower, bound 10%", base, [x * 1.05 for x in base], "lower", 0.1,
         "within bound"),
        ("20% faster", base, [x * 0.8 for x in base], "lower", 0.1, "improved"),
        ("20% slower", base, [x * 1.2 for x in base], "lower", 0.1, "regressed"),
        ("qps 20% up", base, [x * 1.2 for x in base], "higher", 0.1, "improved"),
        ("qps 20% down", base, [x * 0.8 for x in base], "higher", 0.1,
         "regressed"),
        ("spread 40%, small shift", base,
         [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 104.0],
         "lower", 0.1, "unresolved"),
        ("spread 40%, every run 3x worse", base,
         [240.0, 420.0, 300.0, 360.0, 270.0, 390.0, 330.0, 345.0, 315.0, 310.0],
         "lower", 0.1, "regressed"),
    ]
    failed = 0
    for name, a, b, better, bound, want in cases:
        got, _ = verdict(a, b, better, bound)
        ok = got == want
        failed += not ok
        print("%-4s %-34s want %-13s got %s" % ("ok" if ok else "FAIL", name,
                                                  want, got))
    spec = {"end_to_end": [{"name": "p50", "better": "lower", "bound": 0.1}]}

    def runs(values):
        return {("w", False): [{"p50": {"value": v, "unit": "us"}}
                               for v in values]}

    class Sink:
        def write(self, _):
            pass

    for name, b, want in (("compare() counts a regression",
                           [x * 1.3 for x in base], 1),
                          ("compare() passes equal sets", base, 0)):
        got = compare(runs(base), runs(b), spec, out=Sink())
        failed += got != want
        print("%-4s %-34s want %-13d got %d" % ("ok" if got == want else "FAIL",
                                                  name, want, got))
    print("self-test %s" % ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json holding the bounds")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        parser.error("need BASE_DIR and NEW_DIR (or --self-test)")
    with open(args.benchmark) as f:
        spec = json.load(f)
    base_runs, new_runs = load_dir(args.base), load_dir(args.new)
    if not set(base_runs) & set(new_runs):
        sys.stderr.write("no workload has results on both sides\n")
        return 2
    return 1 if compare(base_runs, new_runs, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
