#!/usr/bin/env python3
"""Repository benchmark: builds the program and the harness, runs one
workload, checks its outputs and prints the result.

    python3 perfbench/run.py --workload serve-k16 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/. The last line of standard
output is one JSON object: correct, attempted, failed and metrics, the
metrics being BENCHMARK.json's end_to_end list (--trace 0) or its
per_layer list (--trace 1). The exit code is non-zero when the build
fails, a correctness check fails or a metric is missing. See NOTES.md.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys

HARNESS_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build(targets):
    """Configures once, then builds the named targets; the log stays in
    the build directory."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1), "--target"] + targets)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (" + " ".join(step) + "); log in " + log_path, 3)
    return bdir


def run_harness(bdir, workload, args):
    """Runs the harness in its own process group, so a timeout also
    stops any daemon it started. Returns (lines, result dict)."""
    workdir = os.path.join(bdir, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--dls", os.path.join(bdir, "dls", "dls"), "--root", "."]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop_group(signum, _frame):
        # Stopped from outside: take the harness and its daemons along.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop_group)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(workload + ": harness timed out", 4)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        fail(workload + ": harness printed no result (exit %d)" % proc.returncode, 5)
    return lines[:-1], result


def report(spec, workload, args, lines, result):
    """Prints the harness notes and every listed metric with its unit;
    returns the JSON line and whether the run is correct."""
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in listed}
    produced = result["metrics"]
    correct = bool(result["correct"])
    for line in lines:
        print(line)
    metrics = {}
    for m in listed:
        value = produced.get(m["name"])
        if m["name"] not in produced and args.trace:
            # A layer this workload does not exercise: reported as 0 and
            # named, so every traced run lists every per-layer metric.
            print("absent %s: not exercised by %s (reported as 0)" % (m["name"], workload))
            value = 0.0
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print("missing %s: harness gave %r" % (m["name"], value))
            correct = False
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%s %s %s: %.6g %s" % (workload, "layer" if args.trace else "metric",
                                      m["name"], value, m["unit"]))
    for name in sorted(set(produced) - names):
        print("%s info %s: %.6g" % (workload, name, produced[name]))
    line = json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]), "metrics": metrics})
    return line, correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness helper tests")
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src", "data/table1_sweep.campaign",
                   "perfbench/CMakeLists.txt"):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed, 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    if args.self_test:
        bdir = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode)

    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known + ["all"]:
        fail("--workload must be one of: " + ", ".join(known + ["all"]), 2)
    if args.seconds < 1 or args.seconds > 60:
        fail("--seconds must lie in 1..60", 2)
    bdir = build(["dls", "perfbench"])
    ok = True
    for workload in known if args.workload == "all" else [args.workload]:
        lines, result = run_harness(bdir, workload, args)
        line, correct = report(spec, workload, args, lines, result)
        ok = ok and correct
        print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
