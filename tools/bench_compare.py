#!/usr/bin/env python3
"""Compares perfbench runs of a parent and a change, pair by pair.

    tools/bench_compare.py --parent P.jsonl [...] --change C.jsonl [...]
                           [--claim METRIC@WORKLOAD ...]

Each input file holds perfbench output: every line that starts with
`{"record":` is one run (other lines are ignored, so whole `run.py` logs
can be passed). Parent and change runs are paired by workload, seed and
trace flag; a run without a partner is reported and left out. For every
workload and every end-to-end metric in BENCHMARK.json, one row gives the
parent's and the change's median with quartiles, the ratio of the medians
(change / parent), the pairs the change won, and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound (a fraction of the parent's median);
  gain        the change wins at least 9 of every 10 pairs and its median
              is better by more than the parent's interquartile range;
  unresolved  neither, and the runs spread wider than the bound (the
              interquartile range of either side, relative to its
              median), unless every change run beats every parent run;
  same        none of the above.

The verdicts are checked in that order: interleaved pairs share the
host's drift, so the pair rule can show a gain through a spread that
leaves "same" and "worse" undecidable.

The exit status is 1 when any row is `worse`, when the change has more
failed operations (errors plus oracle mismatches) than the parent on some
workload, or when a `--claim METRIC@WORKLOAD` row is not `gain`; 2 on bad
input; 0 otherwise. To collect runs, interleave the two checkouts pair by
pair (perfbench's README says why), e.g.

    for seed in 901 902 ...; do
      (cd parent && python3 perfbench/run.py --workload range_select \\
           --seed $seed --seconds 20 --trace 0) | tail -2 >> parent.jsonl
      (cd change && python3 perfbench/run.py ...) | tail -2 >> change.jsonl
    done

The tool reads BENCHMARK.json from the repository root and writes only
to standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # "9 of 10 pairs"


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def load_runs(paths: list[str]) -> dict[tuple, dict]:
    """(workload, seed, trace) -> record, from perfbench output files."""
    runs: dict[tuple, dict] = {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if not line.startswith('{"record":'):
                continue
            record = json.loads(line)["record"]
            key = (record["workload"], record["seed"], record["trace"])
            if key in runs:
                raise ValueError("%s: two runs of %s seed %s trace %s" %
                                 (path, *key))
            runs[key] = record
    return runs


def failed_ops(record: dict) -> int:
    failures = record.get("failures", {})
    return int(failures.get("errors", 0)) + int(failures.get("mismatches", 0))


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """One row: medians, quartiles, ratio, pairs won and the verdict.
    `parent[i]` and `change[i]` are one pair."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(c: float, p: float) -> bool:
        return sign * (p - c) > 0

    stats = {}
    for side, values in (("parent", parent), ("change", change)):
        stats[side] = (quantile(values, 0.25), quantile(values, 0.5),
                       quantile(values, 0.75))
    p_q1, p_med, p_q3 = stats["parent"]
    c_q1, c_med, c_q3 = stats["change"]
    won = sum(beats(c, p) for p, c in zip(parent, change))

    def relative(delta: float, base: float) -> float:
        if base == 0:
            return 0.0 if delta == 0 else math.inf
        return delta / abs(base)

    worse_by = relative(sign * (c_med - p_med), p_med)
    spread = max(relative(p_q3 - p_q1, p_med), relative(c_q3 - c_q1, c_med))
    dominates = all(beats(c, p) for c in change for p in parent)
    if worse_by > bound:
        verdict = "worse"
    elif (won >= WIN_SHARE * len(parent) and
          sign * (p_med - c_med) > p_q3 - p_q1):
        verdict = "gain"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "same"
    ratio = c_med / p_med if p_med != 0 else (1.0 if c_med == 0 else math.inf)
    return {"parent": stats["parent"], "change": stats["change"],
            "ratio": ratio, "won": won, "pairs": len(parent),
            "verdict": verdict}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Compare paired perfbench runs of a parent and a change.")
    parser.add_argument("--parent", nargs="+", required=True,
                        help="perfbench output files of the parent")
    parser.add_argument("--change", nargs="+", required=True,
                        help="perfbench output files of the change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD",
                        help="fail unless this metric is a gain")
    args = parser.parse_args(argv)

    try:
        metrics = json.loads(
            (REPO / "BENCHMARK.json").read_text())["end_to_end"]
        parent_runs = load_runs(args.parent)
        change_runs = load_runs(args.change)
    except (OSError, ValueError, KeyError) as err:
        print("bench_compare: %s" % err, file=sys.stderr)
        return 2
    for key in sorted(set(parent_runs) ^ set(change_runs)):
        side = "parent" if key in parent_runs else "change"
        print("unpaired %s run: %s seed %s trace %s" % (side, *key))
    keys = sorted(set(parent_runs) & set(change_runs))
    if not keys:
        print("bench_compare: no paired runs", file=sys.stderr)
        return 2

    failing = []
    verdicts = {}
    print("%-15s %-18s %16s %28s %28s %7s %6s  %s" %
          ("workload", "metric", "pairs", "parent median [q1, q3]",
           "change median [q1, q3]", "ratio", "won", "verdict"))
    for workload in sorted({k[0] for k in keys}):
        pairs = [k for k in keys if k[0] == workload]
        for metric in metrics:
            name = metric["name"]
            parent, change = [], []
            for key in pairs:
                p = parent_runs[key]["end_to_end"].get(name)
                c = change_runs[key]["end_to_end"].get(name)
                if p is not None and c is not None and \
                        p["value"] is not None and c["value"] is not None:
                    parent.append(float(p["value"]))
                    change.append(float(c["value"]))
            if not parent:
                continue
            row = compare(parent, change, metric["better"], metric["bound"])
            verdicts[(name, workload)] = row["verdict"]
            fmt = "%.4g [%.4g, %.4g]"
            print("%-15s %-18s %16s %28s %28s %7.3f %6s  %s" %
                  (workload, name, "%d seeds" % row["pairs"],
                   fmt % (row["parent"][1], row["parent"][0],
                          row["parent"][2]),
                   fmt % (row["change"][1], row["change"][0],
                          row["change"][2]),
                   row["ratio"], "%d/%d" % (row["won"], row["pairs"]),
                   row["verdict"]))
            if row["verdict"] == "worse":
                failing.append("%s@%s is worse" % (name, workload))
        p_failed = sum(failed_ops(parent_runs[k]) for k in pairs)
        c_failed = sum(failed_ops(change_runs[k]) for k in pairs)
        print("%-15s failed ops: parent %d, change %d" %
              (workload, p_failed, c_failed))
        if c_failed > p_failed:
            failing.append("%s: more failed ops on the change" % workload)
    for claim in args.claim:
        name, _, workload = claim.partition("@")
        verdict = verdicts.get((name, workload), "missing")
        print("claim %s: %s" % (claim, verdict))
        if verdict != "gain":
            failing.append("claim %s is %s, not gain" % (claim, verdict))
    for reason in failing:
        print("FAIL: %s" % reason)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
