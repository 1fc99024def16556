#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_suite, served_session, shared_fleet (see
perfbench/README.md). The benchmark binary prints the host record, every
metric by name with its unit, the checks it made, and as its last line a
JSON object with `correct`, `attempted`, `failed` and `metrics`.

The build goes to $CARGO_TARGET_DIR (default `.bench_build` under the
checkout). Scratch files go to `.perfbench_tmp` under the checkout and are
removed before exit.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def host_info(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_RUSTC"] = host_info(["rustc", "-V"])
    env["PERFBENCH_REV"] = host_info(["git", "rev-parse", "HEAD"])
    binary = os.path.join(target, "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--root", ROOT,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        # the binary removes its own scratch directory; this only clears
        # what a killed run left behind
        tmp = os.path.join(ROOT, ".perfbench_tmp")
        shutil.rmtree(os.path.join(tmp, "%s-%d" % (args.workload, proc.pid)), ignore_errors=True)
        try:
            os.rmdir(tmp)
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
