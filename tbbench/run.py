#!/usr/bin/env python3
"""The TBMD benchmark's one command.

    python3 tbbench/run.py --workload on_bulk_c216 --seed 1 --seconds 15 --trace 0

Run from the repository root.  Builds tbbench/ (and with it the library)
into .bench_build/, runs one workload for --seconds, checks its outputs,
prints every metric by name with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
See tbbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

BUILD_DIR = ".bench_build"
DRIVER_TIMEOUT_S = 170
DEFAULT_SEED = 1  # README.md names the held-out seed for confirming claims


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root):
    """Configure once and build the driver; output goes to stderr."""
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "tbbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "tbbench_driver",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "tbbench_driver")


def git_sha(root):
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("run.py: unknown workload %r" % args.workload)
        return 2

    try:
        driver = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 1
    out_dir = os.path.join(root, BUILD_DIR, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        log("run.py: driver exited with code %d" % proc.returncode)
        return proc.returncode
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["context"]["git_sha"] = git_sha(root)

    if args.trace:
        with open(raw["trace_file"]) as f:
            metrics = stats.per_layer(json.load(f))
        labels = {}
    else:
        metrics, labels = stats.end_to_end(raw)
    stats.validate_names(bench, args.workload, metrics, args.trace)
    unit = stats.units(bench, args.trace)

    print("workload %s  seed %d  seconds %g  trace %d" % (
        args.workload, args.seed, seconds, args.trace))
    for key, value in sorted(raw["context"].items()):
        print("context %s = %s" % (key, value))
    for name in sorted(metrics):
        print("metric %s = %.6g %s%s" % (
            name, metrics[name], unit[name],
            ("  (%s)" % labels[name]) if name in labels else ""))
    if not args.trace:
        for name, (value, u) in sorted(stats.workload_metrics(raw).items()):
            print("workload-metric %s = %.6g %s" % (name, value, u))
    correct = True
    for c in raw["checks"]:
        print("check %s: %s (value %.6g, bound %.6g)" % (
            c["name"], "ok" if c["ok"] else "FAILED", c["value"], c["bound"]))
        correct = correct and c["ok"]
    for d in raw.get("known_defects", []):
        print("known-defect %s" % d)
    print("operations attempted %d failed %d" % (raw["attempted"],
                                                 raw["failed"]))

    results = dict(raw, metrics=metrics, correct=correct,
                   seconds=seconds, units=unit)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit[k]}
                    for k in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
