#!/usr/bin/env python3
"""Runs alternating parent/change pairs of one repository-benchmark workload
and records them in a BENCH_<N>.json file, N being the change's number.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload kit_ingest --seeds 601-610 --seconds 24 --pr N

Each side is a checkout of the repository; both run their own
kitbench/run.py, which builds the side from its sources first. Pair i runs
the i-th seed on both sides, the parent first in even pairs and the change
first in odd ones. Every run's JSON line is kept. The output file gets one "set" per
invocation (a file that exists is extended), with host cores, build type,
both commits, the seeds, each run's metrics, and for each metric both
sides' median and quartiles, the per-pair ratios (change / parent) and the
pairs the change won. A metric's claim rule holds when the change wins at
least nine tenths of the pairs and the medians differ, in the better
direction, by more than the parent's interquartile range. A metric with a
bound in BENCHMARK.json also gets a no-regression verdict: "within" when
the change's median is no worse than the parent's by more than the bound,
"worse" when it is, and "unresolved" when the parent's interquartile range
exceeds the bound times its median and not every change run beats every
parent run. Each side's attempted and failed operations are summed.

    python3 tools/bench_pairs.py --print BENCH_N.json

prints the tables of a file without running anything.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_seeds(text):
    """'601-610' or '601,603,605' or a mix."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def build_type(checkout):
    cache = os.path.join(checkout, ".bench_build", "kitbench",
                         "CMakeCache.txt")
    if os.path.isfile(cache):
        for line in open(cache):
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip() or "Release"
    return "unknown"


def run_once(checkout, workload, seed, seconds, trace):
    """One run.py invocation; returns its record."""
    cmd = [sys.executable, "kitbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    record = {"seed": seed, "exit": proc.returncode,
              "wall_s": round(time.time() - t0, 2)}
    for line in proc.stdout.splitlines():
        if line.startswith("source "):
            record["source"] = json.loads(line[len("source "):])
    lines = proc.stdout.splitlines()
    if lines:
        try:
            record["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, median_parent, median_change, iqr, higher,
            bound):
    """The no-regression verdict of one metric (see the module doc)."""
    beats_all = (min(change) > max(parent) if higher
                 else max(change) < min(parent))
    if iqr > bound * abs(median_parent) and not beats_all:
        return "unresolved"
    worse = (median_change < median_parent * (1 - bound) if higher
             else median_change > median_parent * (1 + bound))
    return "worse" if worse else "within"


def op_counts(runs):
    """Each side's summed attempted and failed operations."""
    counts = {}
    for run in runs:
        result = run.get("result", {})
        side = counts.setdefault(run["side"], {"attempted": 0, "failed": 0})
        side["attempted"] += result.get("attempted", 0)
        side["failed"] += result.get("failed", 0)
    for side in counts.values():
        side["failed_share"] = (side["failed"] / side["attempted"]
                                if side["attempted"] else None)
    return counts


def summarize(runs, metrics):
    """Per-metric medians, quartiles, pair ratios, wins and verdicts."""
    by_pair = {}
    for run in runs:
        if run.get("exit") != 0 or "result" not in run:
            continue
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
    summary = {}
    for m in metrics:
        name = m["name"]
        higher = m["better"] == "higher"
        parent = [by_pair[p]["parent"]["metrics"][name]["value"]
                  for p in pairs]
        change = [by_pair[p]["change"]["metrics"][name]["value"]
                  for p in pairs]
        if not pairs:
            continue
        pq = quartiles(parent)
        cq = quartiles(change)
        ratios = [c / p if p else None for p, c in zip(parent, change)]
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if higher else c < p))
        gap = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
        if "bound" in m:
            summary_verdict = verdict(parent, change, pq[1], cq[1],
                                      pq[2] - pq[0], higher, m["bound"])
        summary[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "ratio_of_medians": cq[1] / pq[1] if pq[1] else None,
            "pair_ratios": ratios,
            "wins": wins,
            "pairs": len(pairs),
            "claim_rule_met": wins * 10 >= 9 * len(pairs) and
                              gap > pq[2] - pq[0],
        }
        if "bound" in m:
            summary[name]["bound"] = m["bound"]
            summary[name]["verdict"] = summary_verdict
    return summary


def fmt(v):
    if v is None:
        return "-"
    if abs(v) >= 1000:
        return "%.0f" % v
    if abs(v) >= 10:
        return "%.1f" % v
    return "%.3g" % v


def print_set(s):
    seeds = s["seeds"]
    print("%s  --seconds %g  --trace %d  seeds %s  (%d pairs; parent %s, "
          "change %s)" % (s["workload"], s["seconds"], s["trace"],
                          ",".join(str(x) for x in seeds),
                          len(seeds), s["parent"]["commit"][:7],
                          s["change"]["commit"][:7]))
    failed = [r for r in s["runs"] if r.get("exit") != 0 or
              not r.get("result", {}).get("correct", False)]
    print("  runs: %d, incorrect or failed: %d" % (len(s["runs"]),
                                                   len(failed)))
    for side, ops in sorted(op_counts(s["runs"]).items()):
        share = ops["failed_share"]
        print("  %s ops: %d attempted, %d failed (%s)" % (
            side, ops["attempted"], ops["failed"],
            "-" if share is None else "%.4f%%" % (100 * share)))
    print("  %-32s %-6s %-28s %-28s %-7s %-6s %-10s %s" % (
        "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "ratio", "wins", "verdict",
        "pair ratios"))
    for name, m in s["summary"].items():
        p, c = m["parent"], m["change"]
        ratios = " ".join("%.2f" % r if r is not None else "-"
                          for r in m["pair_ratios"])
        print("  %-32s %-6s %-28s %-28s %-7s %-6s %-10s %s%s" % (
            name, m["unit"],
            "%s [%s, %s]" % (fmt(p["median"]), fmt(p["q1"]), fmt(p["q3"])),
            "%s [%s, %s]" % (fmt(c["median"]), fmt(c["q1"]), fmt(c["q3"])),
            "%.3fx" % m["ratio_of_medians"]
            if m["ratio_of_medians"] is not None else "-",
            "%d/%d" % (m["wins"], m["pairs"]), m.get("verdict", "-"),
            ratios, "  (claim rule met)" if m["claim_rule_met"] else ""))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--print", dest="print_file",
                        help="print the tables of a BENCH json and exit")
    parser.add_argument("--parent", help="parent checkout")
    parser.add_argument("--change", help="change checkout")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", help="e.g. 601-610")
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pr", type=int, help="names BENCH_<pr>.json")
    parser.add_argument("--out", help="output file (default BENCH_<pr>.json "
                        "in the change checkout)")
    args = parser.parse_args()

    if args.print_file:
        with open(args.print_file) as f:
            doc = json.load(f)
        for s in doc["sets"]:
            print_set(s)
            print()
        return 0

    for flag in ("parent", "change", "workload", "seeds", "pr"):
        if getattr(args, flag) is None:
            parser.error("--%s is required" % flag)
    seeds = parse_seeds(args.seeds)
    out = args.out or os.path.join(args.change, "BENCH_%d.json" % args.pr)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": args.parent, "change": args.change}

    # Build each side once (run.py builds before it runs); this run is
    # not kept.
    for side, checkout in sides.items():
        log("building %s" % side)
        warm = run_once(checkout, args.workload, seeds[0], 1, args.trace)
        if warm["exit"] != 0:
            log("%s: run.py failed (exit %d)" % (side, warm["exit"]))
            return 1

    runs = []
    source = {}
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else \
                ("change", "parent")
        for position, side in enumerate(order):
            record = run_once(sides[side], args.workload, seed,
                              args.seconds, args.trace)
            record.update({"pair": pair, "side": side, "order": position})
            runs.append(record)
            source.setdefault(side, record.get("source", {}))
            value = record.get("result", {}).get("metrics", {}).get(
                metrics[0]["name"], {}).get("value")
            log("pair %d seed %d %s: exit %d, %s %s" % (
                pair, seed, side, record["exit"], metrics[0]["name"],
                fmt(value)))

    new_set = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seeds,
        "parent": {"commit": source.get("parent", {}).get("commit",
                                                          "unknown"),
                   "source_sha256": source.get("parent", {}).get(
                       "source_sha256"),
                   "build_type": build_type(args.parent)},
        "change": {"commit": source.get("change", {}).get("commit",
                                                          "unknown"),
                   "source_sha256": source.get("change", {}).get(
                       "source_sha256"),
                   "build_type": build_type(args.change)},
        "runs": runs,
        "ops": op_counts(runs),
        "summary": summarize(runs, metrics),
    }
    doc = {"pr": args.pr,
           "host": {"cores": os.cpu_count(), "machine": platform.machine()},
           "sets": []}
    if os.path.isfile(out):
        with open(out) as f:
            doc = json.load(f)
    doc["sets"].append(new_set)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print_set(new_set)
    return 0


if __name__ == "__main__":
    sys.exit(main())
