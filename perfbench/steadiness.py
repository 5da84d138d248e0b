#!/usr/bin/env python3
"""Repeat each workload with different seeds and report how steady the
end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]
        [--workloads batch_all,seq_fpga,iot_serve] [--traced]
        [--json out.json]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, and flags a spread above the metric's bound in
BENCHMARK.json, setup_s included. The ungated figures a workload prints
on its note lines (query latencies, freshness p99) are summarised the
same way without a flag. It also checks that the
share of failed operations is the same in every run. With --traced it
also makes one traced run per seed and reports the tracing overhead: the
median of each end-to-end metric under tracing minus the untraced
median, as a share of the untraced median. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Reported on note lines and summarised here, but not gated (README.md).
REPORTED = ("query_p50_ms", "query_p99_ms", "freshness_p99_ms")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    result = json.loads(lines[-1])
    traced = None
    reported = {}  # ungated figures from the note lines
    for line in lines:
        if line.startswith("e2e_traced "):
            traced = json.loads(line[len("e2e_traced "):])
        for m in REPORTED:
            if line.startswith("note ") and f" {m} " in line + " ":
                reported[m] = float(line.split(f" {m} ")[1].split()[0].rstrip(","))
    return result, traced, reported


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(all_workloads))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {}
    unsteady = []
    for w in args.workloads.split(","):
        values = {m: [] for m in bounds}
        reported_values = {m: [] for m in REPORTED}
        traced_values = {m: [] for m in bounds}
        fail_shares = set()
        for i in range(args.runs):
            seed = args.seed_base + i
            result, _, reported = run_once(w, seed, seconds, trace=False)
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: a correctness check failed")
            fail_shares.add((result["failed"], result["attempted"])
                            if result["failed"] else 0)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            for m, v in reported.items():
                reported_values[m].append(v)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m}={values[m][-1]:.6g}" for m in bounds), flush=True)
            if args.traced:
                _, traced, _ = run_once(w, seed, seconds, trace=True)
                for m in bounds:
                    traced_values[m].append(traced[m]["value"])
        report[w] = {}
        print(f"\n{w}: {args.runs} runs, failed-share values {sorted(fail_shares, key=str)}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}" + ("  trace-overhead" if args.traced else ""))
        for m, bound in bounds.items():
            med, q1, q3, spread = summary(values[m])
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                unsteady.append(f"{w}/{m}")
            elif spread > bound / 3:
                flag = "  over bound/3"
            entry = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bound, "values": values[m]}
            extra = ""
            if args.traced:
                tmed = statistics.median(traced_values[m])
                entry["traced_median"] = tmed
                entry["trace_overhead"] = (tmed - med) / med
                extra = f"  {entry['trace_overhead']:+.3%}"
            report[w][m] = entry
            print(f"  {m:18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3%} {bound:6.2f}{extra}{flag}")
        for m, vals in reported_values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, spread = summary(vals)
            report[w][m] = {"median": med, "q1": q1, "q3": q3,
                            "spread": spread, "values": vals}
            print(f"  {m:18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3%}  (reported, not gated)")
        if len(fail_shares) > 1:
            unsteady.append(f"{w}/failed-share")
        print(flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    if unsteady:
        print("unsteady: " + ", ".join(unsteady))
        return 1
    print("every spread within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
