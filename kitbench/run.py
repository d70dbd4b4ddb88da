#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 kitbench/run.py --workload kit_ingest --seed 1 --seconds 12 --trace 0

Run from the repository root. Builds the library and the benchmark driver
from source into .bench_build/kitbench (a no-op when up to date), runs the
driver, and prints its report followed, as the last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics; a per-layer metric of a layer the workload does not
exercise reads 0. Exits non-zero when the build fails, the driver fails, a
named metric is missing, or an output check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "kitbench")
WORKLOADS = ("kit_ingest", "store_ingest", "dashboard_query")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the driver; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "kitbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_facts():
    """The commit when the checkout is a git repository, and always a
    digest of the sources the driver was built from."""
    facts = {"commit": "unknown"}
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        ref = open(head).read().strip()
        if ref.startswith("ref: "):
            ref_file = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_file):
                facts["commit"] = open(ref_file).read().strip()
        else:
            facts["commit"] = ref
    digest = hashlib.sha256()
    for top in ("src", "kitbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    facts["source_sha256"] = digest.hexdigest()[:16]
    return facts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        log("kitbench: build failed")
        return 1

    env = dict(os.environ)
    env.pop("IOTDB_OBS_DISABLED", None)  # the registry runs as shipped
    cmd = [os.path.join(BUILD_DIR, "kitbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("kitbench: driver timed out")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("kitbench: driver exited with %d" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    known = {m["name"] for m in wanted}
    unknown = [name for name in measured if name not in known]
    if unknown or (missing and not args.trace):
        log("kitbench: metrics not in BENCHMARK.json: %s; missing: %s"
            % (unknown, missing))
        return 1
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"], {"value": 0, "unit": m["unit"]})
        if got["unit"] != m["unit"]:
            log("kitbench: %s measured in %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
            return 1
        metrics[m["name"]] = got
    print("source " + json.dumps(source_facts(), sort_keys=True))
    if missing:
        print("not exercised by %s (reported as 0): %s"
              % (args.workload, " ".join(missing)))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
