#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on one host.

    python3 perfbench/ab.py --base DIR --change DIR [--pairs 10]
                            [--workloads a,b] [--out FILE]

Each DIR is the root of a checkout holding perfbench/ (the parent commit
and the change).  For every workload the tool runs `pairs` pairs of
untraced runs, one per side, alternating which side goes first, with the
same seed inside a pair and a new seed per pair.  Every run lasts the
run_seconds that BENCHMARK.json fixes.  Both sides must carry identical
benchmark code, and every run must come from the same host.

For each end-to-end metric it reports each side's median and quartiles,
the share of pairs the change won (ties count for neither), and a verdict
following the choosing-metrics rule for small sandboxes:

  gain        the change won at least 9/10 of the pairs, the medians
              differ in its favour by more than the base's interquartile
              range, and no more of its operations failed than the base's;
  unresolved  the base's own spread (IQR / median) exceeds the metric's
              bound in BENCHMARK.json, so "no worse" cannot be told from
              noise -- unless every change run beat every base run;
  regression  the change's median is worse than the base's by more than
              the bound;
  same        otherwise: no worse than the bound allows.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

FIRST_SEED = 1000  # pair i runs seed FIRST_SEED + i on both sides


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # The driver logs every iteration to stderr; show it only on failure.
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("stamp "):
        sys.stderr.write(p.stderr[-4000:])
        sys.exit(f"ab: no result from {root} ({workload}, seed {seed}), "
                 f"exit {p.returncode}")
    return (json.loads(lines[-2][len("stamp "):]), json.loads(lines[-1]),
            p.stderr)


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(metric, base, change, base_failed, change_failed):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    better_gap = (bm - cm) if lower else (cm - bm)
    all_better = (max(change) < min(base)) if lower else \
        (min(change) > max(base))
    spread = (b3 - b1) / bm if bm else float("inf")
    if (wins >= 0.9 * len(base) and better_gap > b3 - b1
            and change_failed <= base_failed):
        v = "gain"
    elif all_better:
        v = "same"
    elif spread > bound:
        v = "unresolved"
    elif bm and -better_gap / bm > bound:
        v = "regression"
    else:
        v = "same"
    return {"base": {"q1": b1, "median": bm, "q3": b3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "wins": wins, "pairs": len(base), "base_spread": spread,
            "bound": bound, "failed": {"base": base_failed,
                                       "change": change_failed},
            "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("ab: at least 10 pairs per workload")

    base = os.path.abspath(args.base)
    change = os.path.abspath(args.change)
    with open(os.path.join(base, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])

    report = {"base": base, "change": change, "seconds": seconds,
              "workloads": {}}
    host = None
    for w in names:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                stamp, res, err = run_side(
                    base if side == "base" else change, w, seed, seconds)
                if host is None:
                    host = stamp["host"]
                elif stamp["host"] != host:
                    sys.exit("ab: refusing to compare results from different "
                             f"hosts: {host} vs {stamp['host']}")
                if not res["correct"]:
                    sys.stderr.write(err[-4000:])
                    sys.exit(f"ab: {side} run of {w} (seed {seed}) failed "
                             "its correctness checks")
                runs[side].append((stamp, res))
        stamps = [s for side in runs.values() for s, _ in side]
        if len({s["build"]["bench"] for s in stamps}) != 1:
            sys.exit("ab: the two sides must run identical benchmark code")
        for side in runs.values():
            if len({s["build"]["program"] for s, _ in side}) != 1:
                sys.exit(f"ab: a side's sources changed during the {w} pairs")
        failed = {side: sum(r["failed"] for _, r in rs)
                  for side, rs in runs.items()}
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for _, r in runs["base"]]
            c = [r["metrics"][name]["value"] for _, r in runs["change"]]
            rows[name] = verdict(metric, b, c, failed["base"],
                                 failed["change"])
            rows[name]["unit"] = metric["unit"]
        report["workloads"][w] = rows
        print(f"\n{w} ({args.pairs} pairs, {seconds} s runs)")
        print(f"  {'metric':<14} {'base median [q1,q3]':>34} "
              f"{'change median [q1,q3]':>34} {'wins':>6}  verdict")
        for name, r in rows.items():
            bq, cq = r["base"], r["change"]
            print(f"  {name:<14} {bq['median']:>12.5g} [{bq['q1']:.5g},"
                  f"{bq['q3']:.5g}] {cq['median']:>12.5g} [{cq['q1']:.5g},"
                  f"{cq['q3']:.5g}] {r['wins']:>3}/{r['pairs']:<2}  "
                  f"{r['verdict']}")
    report["host"] = host
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
