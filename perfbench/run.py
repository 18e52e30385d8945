#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--digests FILE] [--record]
                             [--trace-out FILE]

Run from the root of a checkout.  The driver is built (CMake, out of tree in
.bench_build/) from perfbench/ and the repository's src/ on first use and
incrementally afterwards.  The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

The line before it is the run's stamp (host, build, seed, jobs, shards).
A run whose sanity checks fail, whose iterations disagree, or whose digest
of simulated statistics differs from the one recorded for its seed in
perfbench/digests.json is incorrect: every operation counts as failed
(fail_frac = 1 in the traced run) and the exit code is 1.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "ragnar_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Ragnar sources (src/CMakeLists.txt) next to perfbench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "ragnar_perfbench"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tree_hash(top):
    """Hash of the files under `top` (the checkout may not be a git
    repository, so this stands in for a commit id)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def host_stamp():
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "machine": platform.machine(), "kernel": platform.release()}


def load_digests(path):
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one iteration (self-test)")
    ap.add_argument("--digests", default=DIGESTS,
                    help="recorded digests to check against")
    ap.add_argument("--record", action="store_true",
                    help="record this seed's digest instead of checking it")
    ap.add_argument("--trace-out", help="write the traced run's spans here "
                    "(Chrome trace_event JSON)")
    args = ap.parse_args()

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 4)
    lines = p.stdout.strip().splitlines()
    if p.returncode == 2 or not lines:
        fail(f"driver exited {p.returncode} without a result", 4)
    res = json.loads(lines[-1])

    failures = list(res["failures"])
    size = "smoke" if args.smoke else "full"
    digests = load_digests(args.digests)
    recorded = digests.get(size, {}).get(args.workload, {})
    want = recorded.get(str(args.seed))
    if args.record:
        if failures:
            fail("refusing to record the digest of a failing run", 1)
        digests.setdefault(size, {}).setdefault(args.workload, {})[
            str(args.seed)] = res["digest"]
        with open(args.digests, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
    elif want is not None and want != res["digest"]:
        failures.append(f"digest {res['digest']} differs from the one "
                        f"recorded for seed {args.seed} ({want})")

    correct = not failures
    attempted = max(1, int(res["attempted"]))
    failed = int(res["failed"]) if correct else attempted
    metrics = res["metrics"]
    if not correct and "fail_frac" in metrics:
        metrics["fail_frac"]["value"] = 1.0
    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)

    stamp = {
        "host": host_stamp(),
        "build": dict(res["build"], program=tree_hash("src"),
                      bench=tree_hash("perfbench"), commit=git_commit()),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "jobs": res["config"]["jobs"], "shards": res["config"]["shards"],
        "iterations": res["iterations"], "digest": res["digest"],
        "digest_recorded": want is not None or args.record,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
