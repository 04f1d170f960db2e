#!/usr/bin/env python3
"""Short correctness check of the benchmark at two seeds.

    python3 perfbench/selfcheck.py [SEED_A SEED_B]

Runs every workload, traced, at both seeds with a small operation count,
and fails (exit 1) on any failed operation, oracle mismatch (of a served
reply or an in-process replay) or result-cache hit. Use a seed that was
not used while writing a change to re-check a claim about it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["range_select", "hurricane_join", "ingest_mix"]


def check(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1",
           "--ops", "96"]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         cwd=os.path.dirname(HERE), timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return "exit %d: %s" % (out.returncode, out.stderr.strip()[-2000:])
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    failures = record["failures"]
    if result["failed"] or not result["correct"] or failures["cache_hits"]:
        return json.dumps(failures)
    return None


def main():
    seeds = [int(s) for s in sys.argv[1:3]] or [101, 202]
    bad = 0
    for workload in WORKLOADS:
        for seed in seeds:
            problem = check(workload, seed)
            print("%-15s seed %-6d %s" % (workload, seed, problem or "ok"),
                  flush=True)
            bad += problem is not None
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
