#!/usr/bin/env python3
"""Gate CI on microbenchmark regressions.

Compares a fresh DS_BENCH_JSON dump from bench/micro_primitives against the
checked-in baseline (bench/BENCH_baseline.json) and exits non-zero when any
gated benchmark's ns_per_op exceeds --max-ratio times its baseline value.

Only stdlib; runs anywhere python3 exists.

Usage:
  check_bench_regression.py --baseline bench/BENCH_baseline.json \
      --current out.json [--max-ratio 2.0] [BM_Name ...]

With no benchmark names, every benchmark present in the baseline is gated.

Pair gates compare two benchmarks *from the same run*, which cancels out
host speed and so supports much tighter bounds than the absolute baseline
gate (CI runners vary ~2x; two benchmarks in one process don't):

  check_bench_regression.py --baseline ... --current out.json \
      --pair BM_GuidedCampaignPointJournaled BM_GuidedCampaignPoint \
      --pair-max-ratio 1.05

fails when the first benchmark's ns_per_op exceeds --pair-max-ratio times
the second's. --pair may be repeated. When both benchmarks of a pair carry
"samples" of the same length (micro_primitives runs the journaled pair as
alternating repetitions and lists each repetition's ns/op in run order),
the pair's ratio is the median of the per-repetition ratios: each
repetition is compared with its neighbour, so host load that comes and
goes lands on both sides of a ratio alike.
"""

import argparse
import json
import statistics
import sys


def load_benchmarks(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    benches = doc.get("benchmarks")
    if not isinstance(benches, dict):
        raise SystemExit(f"{path}: no 'benchmarks' object")
    return benches


def pair_ratio(subject, reference):
    """subject/reference: the median of the interleaved repetitions' ratios,
    or the ratio of the two ns_per_op values."""
    subject_samples = subject.get("samples")
    reference_samples = reference.get("samples")
    if (isinstance(subject_samples, list) and isinstance(reference_samples, list)
            and len(subject_samples) == len(reference_samples) > 1):
        ratios = [float(s) / float(r) if float(r) > 0 else float("inf")
                  for s, r in zip(subject_samples, reference_samples)]
        return statistics.median(ratios), f"median of {len(ratios)} interleaved repetitions"
    reference_ns = float(reference["ns_per_op"])
    ratio = float(subject["ns_per_op"]) / reference_ns if reference_ns > 0 else float("inf")
    return ratio, "ns_per_op"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="checked-in baseline JSON")
    parser.add_argument("--current", required=True, help="fresh DS_BENCH_JSON dump")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when current/baseline ns_per_op exceeds this")
    parser.add_argument("--pair", nargs=2, action="append", default=[],
                        metavar=("SUBJECT", "REFERENCE"),
                        help="same-run gate: fail when SUBJECT ns_per_op exceeds "
                             "--pair-max-ratio times REFERENCE ns_per_op")
    parser.add_argument("--pair-max-ratio", type=float, default=1.05,
                        help="limit for --pair comparisons")
    parser.add_argument("names", nargs="*", help="benchmarks to gate (default: all in baseline)")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)
    names = args.names or sorted(baseline)

    failures = []
    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  {'ratio':>6}")
    for name in names:
        if name not in baseline:
            failures.append(f"{name}: not in baseline {args.baseline}")
            continue
        if name not in current:
            failures.append(f"{name}: missing from current run {args.current}")
            continue
        base_ns = float(baseline[name]["ns_per_op"])
        cur_ns = float(current[name]["ns_per_op"])
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        flag = "" if ratio <= args.max_ratio else "  << REGRESSION"
        print(f"{name:<{width}}  {base_ns:>12.1f}  {cur_ns:>12.1f}  {ratio:>6.2f}{flag}")
        if ratio > args.max_ratio:
            failures.append(
                f"{name}: {cur_ns:.1f} ns/op is {ratio:.2f}x baseline "
                f"{base_ns:.1f} ns/op (limit {args.max_ratio:.2f}x)")

    for subject, reference in args.pair:
        missing = [n for n in (subject, reference) if n not in current]
        if missing:
            failures.extend(f"{n}: missing from current run {args.current}" for n in missing)
            continue
        ratio, statistic = pair_ratio(current[subject], current[reference])
        flag = "" if ratio <= args.pair_max_ratio else "  << REGRESSION"
        print(f"pair {subject} / {reference}: {ratio:.3f}x, {statistic}"
              f" (limit {args.pair_max_ratio:.2f}x){flag}")
        if ratio > args.pair_max_ratio:
            failures.append(
                f"{subject}: {ratio:.3f}x same-run {reference} ({statistic}; "
                f"{float(current[subject]['ns_per_op']):.1f} vs "
                f"{float(current[reference]['ns_per_op']):.1f} ns/op, "
                f"limit {args.pair_max_ratio:.2f}x)")

    if failures:
        print("\nperf-smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nperf-smoke OK: {len(names)} benchmark(s) within {args.max_ratio:.2f}x of baseline"
          + (f", {len(args.pair)} pair(s) within {args.pair_max_ratio:.2f}x" if args.pair else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
