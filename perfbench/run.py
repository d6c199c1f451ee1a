#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-n5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The script builds the perfbench Go module (perfbench/go.mod, which imports
the repository's packages through a replace directive) into .bench_build/,
keeping the Go build cache there too, then runs it with the given flags.
The last line of standard output is the benchmark's JSON result. With
--workload all it runs every workload in BENCHMARK.json, each in its own
process so that peak memory is measured per workload, and ends with one
combined JSON line whose metric names are prefixed by the workload.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root):
    go = shutil.which("go") or "/usr/local/go/bin/go"
    if not os.path.exists(go):
        fail("no go toolchain found")
    out = os.path.join(root, BUILD_DIR)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(out, "bin", "perfbench")
    proc = subprocess.run([go, "build", "-o", binary, "."],
                          cwd=os.path.join(root, "perfbench"), env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")
    return binary


def run_one(binary, args):
    """Runs one workload; returns its output lines."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode or 1)
    return proc.stdout.splitlines()


def main(argv):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "go.mod")):
        fail("run from the repository root")
    binary = build(root)
    i = argv.index("--workload") + 1 if "--workload" in argv else 0
    if not 0 < i < len(argv) or argv[i] != "all":
        run_one(binary, argv)
        return
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines = run_one(binary, argv[:i] + [name] + argv[i + 1:])
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][name + "." + k] = v
    print(json.dumps(total))


if __name__ == "__main__":
    main(sys.argv[1:])
