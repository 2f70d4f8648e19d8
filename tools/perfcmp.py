#!/usr/bin/env python3
"""Compare two benchmark JSON emissions of the same kind.

Usage:
    tools/perfcmp.py BASELINE.json CANDIDATE.json [--min-speedup X]

Accepts any emitter that follows the bench_sim_throughput schema
(bench_sim_throughput, bench_ckpt_restore, bench_serve_throughput,
...); both files must come from the same emitter ("bench" fields
must match). serve_throughput emissions additionally get a service
report comparing submit / time-to-first-result latency percentiles,
and rows that carry "snapshot_bytes" in both files (ckpt_restore) a
table of checkpoint sizes: an exact figure, where the wall times
beside it are noisy.

Prints a per-row table of ticks/host-second speedups (candidate over
baseline) and the geometric-mean speedup. Rows are matched on
(workload, mode); rows present in only one file are reported and
skipped. With --min-speedup, exits nonzero if any matched row's
speedup falls below X — usable as a CI regression gate.
"""

import argparse
import json
import math
import sys


def load_rows(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        sys.exit(f"error: {path}: no such file (generate it with "
                 f"build/bench/bench_<name> --json {path})")
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: {path}: {e}")
    if not isinstance(data, dict) or \
            not isinstance(data.get("bench"), str) or \
            not data["bench"]:
        sys.exit(f"error: {path}: not a benchmark emission "
                 '(expected a JSON object with a "bench" name)')
    results = data.get("results")
    if not isinstance(results, list) or not results:
        sys.exit(f"error: {path}: no \"results\" rows; the file "
                 "looks truncated or came from an older emitter")
    rows = {}
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            sys.exit(f"error: {path}: results[{i}] is not an "
                     "object")
        for field in ("workload", "mode", "ticks_per_sec"):
            if field not in row:
                sys.exit(f"error: {path}: results[{i}] lacks "
                         f'"{field}"')
        rows[(row["workload"], row["mode"])] = row
    meta = {"quick": bool(data.get("quick", False)),
            "bench": data["bench"]}
    return rows, meta


def service_report(base, cand, matched):
    """Service-bench latencies: printed for serve_throughput rows.

    The throughput table above already compares ticks/s; a campaign
    service is additionally judged on its tail latency, so for every
    matched row that carries the serve_throughput latency fields
    this prints submit and time-to-first-result percentiles side by
    side (candidate/baseline ratio; below 1.0 is faster).
    """
    fields = (("submit_p50_ms", "submit p50"),
              ("submit_p99_ms", "submit p99"),
              ("first_result_p50_ms", "first-result p50"),
              ("first_result_p99_ms", "first-result p99"))
    rows = [key for key in matched
            if all(f in base[key] and f in cand[key]
                   for f, _ in fields)]
    if not rows:
        return
    print("\nservice latencies (ms, candidate vs baseline; "
          "<1.00x is faster):")
    print(f"{'clients':<8} {'metric':<18} {'base':>9} "
          f"{'cand':>9} {'ratio':>8}")
    for key in rows:
        for field, label in fields:
            b, c = base[key][field], cand[key][field]
            ratio = f"{c / b:>7.2f}x" if b else f"{'n/a':>8}"
            print(f"{key[1]:<8} {label:<18} {b:>9.2f} "
                  f"{c:>9.2f} {ratio}")
        camp_b = base[key].get("campaigns_per_sec")
        camp_c = cand[key].get("campaigns_per_sec")
        if camp_b and camp_c:
            print(f"{key[1]:<8} {'campaigns/sec':<18} "
                  f"{camp_b:>9.2f} {camp_c:>9.2f} "
                  f"{camp_c / camp_b:>7.2f}x")


def bytes_report(base, cand, matched):
    """Snapshot sizes, for the matched rows that carry them in both
    files (candidate/baseline ratio; below 1.0 is smaller)."""
    rows = [key for key in matched
            if "snapshot_bytes" in base[key] and
            "snapshot_bytes" in cand[key]]
    if not rows:
        return
    print("\nsnapshot bytes (candidate vs baseline; <1.00x is "
          "smaller):")
    print(f"{'workload':<12} {'mode':<8} {'base':>11} {'cand':>11} "
          f"{'ratio':>8}")
    for key in rows:
        b = base[key]["snapshot_bytes"]
        c = cand[key]["snapshot_bytes"]
        ratio = f"{c / b:>7.3f}x" if b else f"{'n/a':>8}"
        print(f"{key[0]:<12} {key[1]:<8} {b:>11} {c:>11} {ratio}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail if any row is below this speedup")
    args = ap.parse_args()

    base, base_meta = load_rows(args.baseline)
    cand, cand_meta = load_rows(args.candidate)
    if base_meta["bench"] != cand_meta["bench"]:
        sys.exit(f"error: benchmark kinds differ: {args.baseline} "
                 f"is \"{base_meta['bench']}\", {args.candidate} is "
                 f"\"{cand_meta['bench']}\" - their rows measure "
                 "different things and cannot be compared")
    if base_meta["quick"] != cand_meta["quick"]:
        print("warning: comparing a quick run against a full run",
              file=sys.stderr)

    matched = sorted(base.keys() & cand.keys())
    for key in sorted(base.keys() - cand.keys()):
        print(f"note: {key} only in baseline, skipped")
    for key in sorted(cand.keys() - base.keys()):
        print(f"note: {key} only in candidate, skipped")
    if not matched:
        sys.exit(f"error: {args.baseline} and {args.candidate} "
                 "have no (workload, mode) rows in common - they "
                 "measure disjoint sets and cannot be compared")

    print(f"{'workload':<12} {'mode':<8} {'base Mt/s':>10} "
          f"{'cand Mt/s':>10} {'speedup':>8}")
    failed = []
    log_sum = 0.0
    for key in matched:
        b = base[key]["ticks_per_sec"]
        c = cand[key]["ticks_per_sec"]
        if not b:
            sys.exit(f"error: baseline row {key} has zero "
                     "ticks_per_sec; cannot compute a speedup")
        speedup = c / b
        log_sum += math.log(speedup)
        print(f"{key[0]:<12} {key[1]:<8} {b / 1e6:>10.3f} "
              f"{c / 1e6:>10.3f} {speedup:>7.2f}x")
        if args.min_speedup is not None and \
                speedup < args.min_speedup:
            failed.append(key)

    geomean = math.exp(log_sum / len(matched))
    print(f"{'geomean':<21} {'':>21} {geomean:>7.2f}x")

    service_report(base, cand, matched)
    bytes_report(base, cand, matched)

    status = 0
    if failed:
        print(f"FAIL: {len(failed)} row(s) below "
              f"{args.min_speedup:.2f}x: "
              + ", ".join(f"{w}/{m}" for w, m in failed))
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
