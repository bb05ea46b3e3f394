#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results (stdlib only).

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]
                                 [--claim WORKLOAD:METRIC]...

Each directory holds the result JSONs that ds_e2e writes (run.sh --out-dir).
For every workload and every end-to-end metric of BENCHMARK.json it prints
each side's median, quartiles and spread (quartile distance over median),
the change of the median, and a verdict:

  ok          the new median is within the metric's bound of the base one
  worse       the new median is worse than the base one by more than the bound
  unresolved  a side's spread exceeds the bound, so the runs cannot tell,
              unless every new run beats every base run

--claim prints the pair win fraction of one metric on one workload: runs
are paired by seed, a pair is won when the new run is better, and ties
count for neither side.

Exits 1 when a row is worse or unresolved, or when any run failed.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load_runs(directory):
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("schema") != "deepstrike.bench.e2e.v1":
            continue
        runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values):
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def worse_by(base, new, better):
    """Relative change of `new` against `base`, positive when worse."""
    if base == 0:
        return 0.0
    change = (new - base) / base
    return change if better == "lower" else -change


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def failures(runs):
    return [
        f"{r['workload']} seed {r['seed']}: {r['failed']} of {r['attempted']} units failed"
        for rs in runs.values() for r in rs if not r["correct"] or r["failed"]
    ]


def compare(base, new, metrics):
    """Rows of (workload, metric, base summary, new summary, change, verdict)."""
    rows = []
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            rows.append((workload, "-", None, None, "", "missing on one side"))
            continue
        for metric in metrics:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            b = [r["e2e"][name]["value"] for r in base[workload]]
            n = [r["e2e"][name]["value"] for r in new[workload]]
            bs, ns = summarize(b), summarize(n)
            change = worse_by(bs[0], ns[0], better)
            if change > bound:
                verdict = "worse"
            elif max(bs[3], ns[3]) > bound and not all(
                    beats(x, y, better) for x in n for y in b):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, name, bs, ns, f"{change:+.1%} (bound {bound:.0%})", verdict))
    return rows


def pair_win_fraction(base, new, workload, name, better):
    by_seed = {r["seed"]: r["e2e"][name]["value"] for r in base.get(workload, [])}
    pairs = [(by_seed[r["seed"]], r["e2e"][name]["value"])
             for r in new.get(workload, []) if r["seed"] in by_seed]
    wins = sum(1 for b, n in pairs if beats(n, b, better))
    return wins, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default="BENCHMARK.json")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC whose pair win fraction to report")
    args = parser.parse_args()

    base, new = load_runs(args.base), load_runs(args.new)
    if not base or not new:
        sys.exit("compare.py: no result JSONs in one of the directories")
    metrics = json.loads(pathlib.Path(args.bench).read_text())["end_to_end"]

    bad = False
    print(f"{'workload':<20} {'metric':<12} {'base median [q1, q3] spread':<40} "
          f"{'new median [q1, q3] spread':<40} change")
    for workload, name, bs, ns, change, verdict in compare(base, new, metrics):
        bad |= verdict != "ok"
        if bs is None:
            print(f"{workload:<20} {name:<12} {verdict}")
            continue
        side = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] {s[3]:.1%}"
        print(f"{workload:<20} {name:<12} {side(bs):<40} {side(ns):<40} {change} {verdict}")
    print(f"runs: base {sum(map(len, base.values()))}, new {sum(map(len, new.values()))}")

    for claim in args.claim:
        workload, _, name = claim.partition(":")
        metric = next((m for m in metrics if m["name"] == name), None)
        if metric is None:
            sys.exit(f"compare.py: {name} is not an end-to-end metric")
        wins, pairs = pair_win_fraction(base, new, workload, name, metric["better"])
        share = wins / pairs if pairs else 0.0
        print(f"claim {workload}:{name}: new wins {wins} of {pairs} seed pairs ({share:.0%})")

    for line in failures(base) + failures(new):
        bad = True
        print(f"FAILED {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
