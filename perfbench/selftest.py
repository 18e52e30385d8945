#!/usr/bin/env python3
"""Self-test of the benchmark (smoke sizes, about a minute).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, at smoke size: the run is correct,
   its digest matches the one recorded for smoke seed 1, and every metric
   BENCHMARK.json names prints with its unit.
2. Negative test: against a digests file holding a wrong digest for the
   seed, the run fails its gate, exits nonzero, counts every operation as
   failed, and reports fail_frac = 1.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


def run(workload, trace, digests=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    if digests:
        cmd += ["--digests", digests]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    stamp = json.loads(lines[-2][len("stamp "):])
    return p.returncode, stamp, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
        print(("ok   " if ok else "FAIL ") + what)

    for w in (x["name"] for x in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, stamp, res = run(w, trace)
            tag = f"{w} trace={trace}"
            expect(rc == 0 and res["correct"], f"{tag}: correct, exit 0")
            expect(stamp["digest_recorded"],
                   f"{tag}: digest recorded for smoke seed 1")
            expect(res["attempted"] >= 1 and res["failed"] == 0,
                   f"{tag}: attempted >= 1, failed == 0")
            missing = [m["name"] for m in bench[key]
                       if res["metrics"].get(m["name"], {}).get("unit")
                       != m["unit"]]
            expect(not missing, f"{tag}: every {key} metric with its unit"
                   + (f" (missing: {missing})" if missing else ""))
            expect(all(k in stamp["host"] for k in ("nproc", "cpu_model")) and
                   all(k in stamp["build"]
                       for k in ("compiler", "build_type", "program")),
                   f"{tag}: host and build stamp")

    # Negative test: a wrong recorded digest must fail the gate.
    os.makedirs(OUT, exist_ok=True)
    w = bench["workloads"][0]["name"]
    bad = os.path.join(OUT, "selftest-digests.json")
    with open(bad, "w") as f:
        json.dump({"smoke": {w: {"1": "0000000000000000"}}}, f)
    rc, _, res = run(w, 1, digests=bad)
    expect(rc != 0 and not res["correct"],
           f"{w}: a wrong recorded digest fails the gate (exit {rc})")
    expect(res["failed"] == res["attempted"],
           f"{w}: a failed gate counts every operation as failed")
    expect(res["metrics"]["fail_frac"]["value"] == 1.0,
           f"{w}: a failed gate sets fail_frac to 1")

    print(f"\n{'FAILED' if problems else 'passed'}: "
          f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
