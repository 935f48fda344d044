#!/usr/bin/env python3
"""perfbench entry point: build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <publish|serve|fleet|oracle>
                             --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench (CMake, Release) into .bench_build; later calls rebuild only what
changed. The benchmark binary then runs the workload and prints, as the last
line of stdout, one JSON object with the keys correct / attempted / failed /
metrics. Build output goes to stderr.

The result holds every metric BENCHMARK.json names for the run's mode:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. Every
workload measures every end-to-end metric. A per-layer metric of a layer
the workload never calls (shard on publish, exact on serve, ...) is not
measured by the binary and reads 0 here, as a count of its work would.

Exits non-zero without printing a result when the checkout has no cksafe
sources to build, when the build fails, or when the run fails. Every
process the run starts (the binary and any shard processes it forks) is in
one process group that is killed and waited for before this script exits,
and the run's scratch directories are removed on every exit path.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"  # the binary's RunConfig::out_dir
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    source = os.path.join(root, "perfbench")
    for needed in ("CMakeLists.txt", "src", "include/cksafe"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no cksafe sources to build ({needed} is missing)")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def complete(result, trace):
    """Checks the binary's metrics against BENCHMARK.json and adds the
    per-layer metrics of layers the workload does not call, as 0."""
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in manifest}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not in BENCHMARK.json")
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in units}
    return result


def stop_group(pgid):
    """SIGKILLs whatever is left of the run's process group and waits
    until no member remains."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def remove_scratch(pid):
    prefix = f"tmp-{pid}-"
    if not os.path.isdir(OUT_DIR):
        return
    for name in os.listdir(OUT_DIR):
        if name.startswith(prefix):
            shutil.rmtree(os.path.join(OUT_DIR, name), ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["publish", "serve", "fleet", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        remove_scratch(proc.pid)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
    remove_scratch(proc.pid)
    text = out.decode()
    if proc.returncode == 1:
        # A failed correctness check: the result line says correct: false.
        sys.stdout.write(text)
        print("perfbench: correctness check failed", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stdout.write("\n".join(text.rstrip("\n").split("\n")[:-1]))
        fail(f"run failed with exit code {proc.returncode}")
    lines = text.rstrip("\n").split("\n")
    result = complete(json.loads(lines[-1]), args.trace)
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
