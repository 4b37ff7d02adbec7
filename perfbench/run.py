#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the library and the perfbench
driver from source (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset, then runs one workload; the driver's last
stdout line is the JSON result. --self-test runs every workload at a
tiny size in both modes, checks that each metric named in BENCHMARK.json
is printed, finite and carries its unit, and checks shard-count
invariance of the gossip_large config. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver itself must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_root():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return out if os.path.isabs(out) else os.path.join(ROOT, out)


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    build_dir = os.path.join(build_root(), "perfbench")
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def driver(binary, args, capture):
    cmd = [binary, "--root", ROOT,
           "--work", os.path.join(build_root(), "perfbench-work")] + args
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = driver(binary, ["--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", trace,
                                   "--quick"], capture=True)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: output checks failed")
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            if set(metrics) != set(expected):
                problems.append(f"{label}: metric set differs: "
                                f"{sorted(set(metrics) ^ set(expected))}")
            for name, unit in expected.items():
                m = metrics.get(name)
                if m is None:
                    continue
                if m["unit"] != unit:
                    problems.append(f"{label}: {name} unit {m['unit']!r}")
                if not math.isfinite(m["value"]):
                    problems.append(f"{label}: {name} not finite")
            print(f"self-test: {label}: {len(metrics)} metrics, "
                  f"attempted {result['attempted']}", file=sys.stderr)
    if driver(binary, ["--shard-check"], capture=False).returncode != 0:
        problems.append("gossip_large config is not shard-count invariant")
    for p in problems:
        print(f"self-test: FAIL {p}", file=sys.stderr)
    print("self-test: " + ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
        if args.self_test:
            return self_test(binary)
        return driver(binary, ["--workload", args.workload,
                               "--seed", args.seed,
                               "--seconds", args.seconds,
                               "--trace", args.trace],
                      capture=False).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
